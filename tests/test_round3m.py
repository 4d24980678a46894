"""Continuation-#13 late contracts: ssjoin bucket-ownership dedupe
(each qualifying pair emitted by exactly one bucket, union equals
brute force) and the stream-join shard sweep vs the quadratic join."""

import random

import numpy as np
import pandas as pd
import pytest


def _brute_jaccard_pairs(sets, tau_num=4, tau_den=5):
    out = {}
    ids = sorted(sets)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = sets[ids[i]], sets[ids[j]]
            inter = len(a & b)
            if (tau_den + tau_num) * inter >= tau_num * (len(a) + len(b)):
                out[(ids[i], ids[j])] = inter
    return out


def test_ssjoin_ownership_union_equals_bruteforce():
    """drive the REAL _bucket_pairs over per-bucket groups built the
    way _index builds them; the union across buckets must equal the
    brute-force J>=0.8 pair set WITH exact intersection counts and
    no duplicates (the ownership rule's whole claim)."""
    from weakscraper_ray.pipelines.ssjoin import _bucket_pairs, _prefix_len

    rng = random.Random(17)
    for trial in range(8):
        uni = list(range(12))
        sets = {}
        for d in range(30):
            k = rng.randint(3, 9)
            sets[d] = frozenset(rng.sample(uni, k))
        # rank = identity (tokens are already integers; df order is
        # irrelevant to correctness, only to candidate pruning)
        buckets: dict[int, list] = {}
        for d, s in sets.items():
            rs = sorted(s)
            p = _prefix_len(len(rs))
            for b in rs[:p]:
                buckets.setdefault(b, []).append((b, d, len(rs), rs))
        got = {}
        for b, rows in buckets.items():
            g = pd.DataFrame(
                rows, columns=["bucket", "doc_id", "size", "toks"]
            )
            res = _bucket_pairs(g)
            for da, db, nc in zip(
                res["doc_a"], res["doc_b"], res["n_common"]
            ):
                key = (int(da), int(db))
                assert key not in got, f"pair {key} emitted twice"
                got[key] = int(nc)
        want = _brute_jaccard_pairs({d: set(s) for d, s in sets.items()})
        assert got == want, (trial, len(got), len(want))


def test_stream_join_sweep_vs_quadratic():
    """the shard sweep (segment-relative packed keys, host/guest
    replication, same-user subtraction) must count exactly the
    quadratic rule: (ts,id) lexicographically earlier, within 60s,
    different users."""
    from weakscraper_ray.pipelines.ranges import (
        _SJ_BAND_US,
        q_stream_join_60s,  # noqa: F401 (import keeps module loaded)
    )
    from weakscraper_ray.pipelines import ranges as R

    rng = random.Random(23)
    n = 400
    us = np.array(
        sorted(rng.randrange(0, 40 * _SJ_BAND_US) for _ in range(n)),
        dtype=np.int64,
    )
    eid = np.arange(n, dtype=np.int64)
    uid = np.array([rng.randrange(6) for _ in range(n)], dtype=np.int64)

    # quadratic reference
    want = 0
    for i in range(n):
        for j in range(n):
            if (us[i], eid[i]) < (us[j], eid[j]) and us[j] <= us[
                i
            ] + _SJ_BAND_US and uid[i] != uid[j]:
                want += 1

    # replicate the host/guest emission and run the real sweep per shard
    bucket = us // _SJ_BAND_US
    rows = []
    for k in range(n):
        rows.append((int(bucket[k]), int(us[k]), int(eid[k]), int(uid[k]), 1))
        rows.append(
            (int(bucket[k]) - 1, int(us[k]), int(eid[k]), int(uid[k]), 0)
        )
    df = pd.DataFrame(
        rows, columns=["seg", "us", "eid", "uid", "is_host"]
    )
    df["shard"] = df["seg"] & 255
    got = 0
    for _, g in df.groupby("shard"):
        out = R._sweep(g.reset_index(drop=True))
        got += int(out["n"].sum())
    assert got == want


# --------------------------------------------------------------------
# Continuation-15 helper contracts: shingle-containment shard identity,
# SemDeDup integer-cosine test, Kneser-Ney discount exactness.

import pyarrow as pa  # noqa: E402

from weakscraper_ray.functions.exchange import SHARDS, shard_of  # noqa: E402
from weakscraper_ray.pipelines.neardup import (  # noqa: E402
    _SEM_DEN2,
    _SEM_NUM2,
    _shard_pairs,
    _shingle_partial,
)


def _brute_shingles(text: str) -> set:
    w = (text or "").strip().lower().split()
    return {" ".join(w[i : i + 3]) for i in range(len(w) - 2)}


def test_shard_pair_counts_sum_to_exact_intersection():
    """A gram lives in exactly one shard, so summing per-shard pair
    counts reproduces |A∩B| exactly — the identity the roll-up relies
    on (no pair-dedupe exchange)."""
    texts = [
        "the quick brown fox jumps over the lazy dog",
        "quick brown fox jumps over the lazy dog today",
        "a completely different sentence about nothing shared",
        "the quick brown fox jumps over the lazy dog",  # exact dup of 0
        "tiny",  # <3 tokens: no shingles
    ]
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    part_t = _shingle_partial(batch)
    part = part_t.to_pandas()
    part["shard"] = shard_of(part_t, ["gram"])
    # distinct (gram, doc) with correct |A|
    for d, t in enumerate(texts):
        sub = part[part.doc_id == d]
        assert set(sub.gram) == _brute_shingles(t)
        if len(sub):
            assert (sub.na == len(_brute_shingles(t))).all()
    # shard → pairs → sum == brute-force intersection
    got = {}
    for s in range(SHARDS):
        shard = part[part.shard == s]
        if shard.empty:
            continue
        for r in _shard_pairs(shard).itertuples(index=False):
            key = (int(r.pair) >> 32, int(r.pair) & 0xFFFFFFFF)
            got[key] = got.get(key, 0) + r.shared
    for i in range(len(texts)):
        for j in range(i + 1, len(texts)):
            inter = len(_brute_shingles(texts[i]) & _brute_shingles(texts[j]))
            assert got.get((i, j), 0) == inter


def test_semdedup_integer_cosine_matches_float():
    """400·dot² ≥ 49·|a|²·|b|² ∧ dot>0  ⟺  cos ≥ 0.35 on the quantized
    grid (checked against float cosine computed from the SAME integer
    vectors, away from exact boundaries)."""
    rng = np.random.RandomState(7)
    X = (rng.randn(60, 16) * 5e5).astype(np.int64)
    n2 = np.einsum("nd,nd->n", X, X)
    for i in range(len(X)):
        for j in range(i):
            d = int(X[i] @ X[j])
            lhs = _SEM_DEN2 * d * d >= _SEM_NUM2 * int(n2[i]) * int(n2[j])
            cond = d > 0 and lhs
            cos = d / np.sqrt(float(n2[i]) * float(n2[j]))
            if abs(cos - 0.35) > 1e-9:
                assert cond == (cos >= 0.35), (i, j, cos)


def test_semdedup_min_id_keeper_semantics():
    """In a cluster where everything is mutually similar, exactly the
    minimum vec_id survives; dissimilar vectors all survive."""
    from weakscraper_ray.pipelines.neardup import q_semdedup  # noqa: F401

    # direct check of the prune rule on a hand batch via the same
    # object-arithmetic path the map_groups closure runs
    base = (np.ones(8) * 1_000_00).astype(np.int64)
    sim_cluster = np.stack([base + k for k in range(5)])  # ~identical
    X = sim_cluster
    D = X @ X.T
    n2 = np.einsum("nd,nd->n", X, X).astype(object)
    Do = D.astype(object)
    M = (D > 0) & np.asarray(
        _SEM_DEN2 * Do * Do >= _SEM_NUM2 * n2[:, None] * n2[None, :],
        dtype=bool,
    )
    pruned = np.tril(M, -1).any(axis=1)
    assert not pruned[0] and pruned[1:].all()


def test_kn_discount_exact_in_binary():
    """D = 0.75 is exactly representable, so c − D is one exact float
    op on both engines (the mirror's premise)."""
    from weakscraper_ray.pipelines.retrieval import _KN_D

    assert _KN_D == 3 / 4
    assert (5.0 - _KN_D) == 4.25  # no rounding anywhere
