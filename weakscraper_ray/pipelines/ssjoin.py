"""Exact set-similarity self-join via prefix filtering — the
third published near-dup family next to MinHash-LSH (probabilistic)
and sorted-neighborhood (sort-based): candidate generation is LOSSLESS
for a Jaccard threshold, so the whole operator is oracle-exact, not
recall-bounded.  Public idiom: SSJoin (Chaudhuri, Ganti & Kaushik,
ICDE'06), AllPairs (Bayardo, Ma & Srikant, WWW'07), PPJoin (Xiao,
Wang, Lin & Yu, WWW'08).

Prefix-filter theorem (the correctness core): order every document's
distinct-token set by a GLOBAL total order (document frequency
ascending, then token — rare tokens first); if J(A, B) ≥ τ then the
first |A| − ⌈τ·|A|⌉ + 1 tokens of A and the first |B| − ⌈τ·|B|⌉ + 1
tokens of B share at least one token.  So indexing only prefixes and
pairing within single-token buckets misses nothing; pinned for the
integer τ = 4/5 against brute force in tests/test_round3g.py.

Scale design:

- Pass 1 (token order): per-batch distinct-(doc, term) partials →
  one ``groupby(term)`` document-frequency exchange whose payload is
  the batch vocabulary, never the token stream.  The (df, term) rank
  map is broadcast once via ``ray.put``.
- Pass 2 (index + verify): each doc emits one row PER PREFIX TOKEN
  (~(1−τ)·|set| rows) carrying its full sorted rank list — the
  PPJoin "record travels with its index entry" layout, so
  verification is INLINE in the bucket stage: one vocab-bounded
  ``groupby(bucket).map_groups``, candidate pairs length-filtered
  (τ·|b| ≤ |a| for |a| ≤ |b|) and verified with exact integer
  set-intersection counts.  No candidate-pair materialization on the
  driver, no second keyed exchange (contrast: dedup_minhash's verify
  re-read).
- Duplicate candidates (a pair sharing several prefix tokens) are
  prevented at the source: the bucket of the pair's MINIMUM shared
  prefix token is its sole owner (a prefix-incidence matmul tests
  "no earlier shared prefix token"), so no dedupe exchange exists.
- Rare tokens lead the order, so hot-token buckets only contain the
  docs whose prefixes reach them; the published hardening for skewed
  corpora is PPJoin's positional filter (documented swap-in).

Threshold arithmetic is integer end-to-end: J ≥ 4/5 ⟺
9·|A∩B| ≥ 4·(|A|+|B|); prefix length uses ⌈4n/5⌉ = (4n+4)//5.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray

from .relational import _read

#: Jaccard threshold τ = _TAU_NUM/_TAU_DEN (integer arithmetic only)
_TAU_NUM, _TAU_DEN = 4, 5


def _prefix_len(n: int) -> int:
    """|x| − ⌈τ·|x|⌉ + 1 with τ = 4/5."""
    return n - (_TAU_NUM * n + _TAU_DEN - 1) // _TAU_DEN + 1


def _bucket_pairs(g: pd.DataFrame) -> pd.DataFrame:
    """Exact verification inside one bucket, VECTORIZED: pairwise
    intersection counts come from a doc×token incidence matmul
    (BLAS float32 — counts ≤ |set| ≤ 2²⁴, exactly representable),
    chunked over rows so a hot bucket of b docs costs
    O(b²·v/chunk) memory instead of a b² Python loop with set
    intersections (the loop version measured 387 s at sf0.1 on
    this highly self-similar corpus).

    OWNERSHIP dedupe (the decisive fix on a corpus with ~3M
    qualifying pairs at sf0.1): a pair is emitted ONLY by its
    minimum shared PREFIX token's bucket — a second incidence
    matmul over prefix tokens ranked below this bucket tests
    "no earlier shared prefix token" — so every pair leaves the
    stage exactly once and the 5×-replicated pair dedupe
    exchange disappears (emitting in every shared bucket and
    Min-deduping measured ~500 s at sf0.1; this path ~30 s)."""
    g = g.sort_values(["size", "doc_id"]).reset_index(drop=True)
    b = len(g)
    if b < 2:
        return pd.DataFrame(
            {
                "doc_a": pd.array([], dtype="int64"),
                "doc_b": pd.array([], dtype="int64"),
                "n_common": pd.array([], dtype="int64"),
                "size_a": pd.array([], dtype="int64"),
                "size_b": pd.array([], dtype="int64"),
            }
        )
    bkt = int(g["bucket"].iloc[0])
    ids = g["doc_id"].to_numpy(np.int64)
    szs = g["size"].to_numpy(np.int64)
    flat = np.concatenate([np.asarray(t, dtype=np.int64) for t in g["toks"]])
    lens = np.fromiter((len(t) for t in g["toks"]), np.int64, b)
    loc_vocab, loc = np.unique(flat, return_inverse=True)
    rows = np.repeat(np.arange(b, dtype=np.int64), lens)
    A = np.zeros((b, len(loc_vocab)), dtype=np.float32)
    A[rows, loc] = 1.0
    # prefix incidence restricted to ranks BELOW this bucket: the
    # ownership test (shared-earlier-prefix count == 0)
    pl = np.fromiter(
        (_prefix_len(len(t)) for t in g["toks"]), np.int64, b
    )
    pf = np.concatenate(
        [np.asarray(t[: int(p)], np.int64) for t, p in zip(g["toks"], pl)]
    )
    prow = np.repeat(np.arange(b, dtype=np.int64), pl)
    early = pf < bkt
    L = np.zeros((b, len(loc_vocab)), dtype=np.float32)
    L[prow[early], np.searchsorted(loc_vocab, pf[early])] = 1.0
    oa, ob, common, sa_l, sb_l = [], [], [], [], []
    chunk = max(1, min(b, 1 << 22) // max(1, len(loc_vocab)))
    for lo in range(0, b, chunk):
        hi = min(lo + chunk, b)
        inter = (A[lo:hi] @ A.T).astype(np.int64)  # (hi-lo, b)
        shared_early = L[lo:hi] @ L.T  # exact small ints in f32
        ii, jj = np.nonzero(
            # upper triangle only (j > global row index i)
            (np.arange(b)[None, :] > np.arange(lo, hi)[:, None])
            # this bucket owns the pair: no shared prefix token
            # ranked below it
            & (shared_early == 0)
            # length filter: sizes ascending → τ·|b| ≤ |a|
            & (_TAU_NUM * szs[None, :] <= _TAU_DEN * szs[lo:hi, None])
            # exact integer Jaccard threshold
            & (
                (_TAU_DEN + _TAU_NUM) * inter
                >= _TAU_NUM * (szs[lo:hi, None] + szs[None, :])
            )
        )
        gi = ii + lo
        a_ids, b_ids = ids[gi], ids[jj]
        lo_ids = np.minimum(a_ids, b_ids)
        hi_ids = np.maximum(a_ids, b_ids)
        swap = a_ids != lo_ids
        sa = np.where(swap, szs[jj], szs[gi])
        sb = np.where(swap, szs[gi], szs[jj])
        oa.append(lo_ids)
        ob.append(hi_ids)
        common.append(inter[ii, jj])
        sa_l.append(sa)
        sb_l.append(sb)
    cat = lambda xs: np.concatenate(xs) if xs else np.array([], np.int64)
    return pd.DataFrame(
        {
            "doc_a": pd.array(cat(oa), dtype="int64"),
            "doc_b": pd.array(cat(ob), dtype="int64"),
            "n_common": pd.array(cat(common), dtype="int64"),
            "size_a": pd.array(cat(sa_l), dtype="int64"),
            "size_b": pd.array(cat(sb_l), dtype="int64"),
        }
    )



def q_ssjoin_prefix(sf_dir: str):
    """All document pairs with word-set Jaccard ≥ 0.8 — exact (no
    recall floor), via prefix filtering.  Output one row per pair:
    sizes, exact intersection count, and the e6-rounded Jaccard."""
    from ray.data.aggregate import Min, Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    # ---- pass 1: global document frequency → (df, term) rank order
    def _df_partial(t: pa.Table) -> pa.Table:
        terms: dict[str, int] = {}
        for txt in t.column("text").to_pylist():
            for w in set((txt or "").split()):
                terms[w] = terms.get(w, 0) + 1
        return pa.table(
            {
                "term": pa.array(list(terms)),
                "df": pa.array(list(terms.values()), pa.int64()),
            }
        )

    df = (
        ds.map_batches(_df_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("df", alias_name="df"))
        .to_pandas()  # bounded by corpus vocabulary
    )
    df = df.sort_values(["df", "term"]).reset_index(drop=True)
    rank_ref = ray.put({t: i for i, t in enumerate(df["term"])})

    # ---- pass 2: prefix index rows carrying the full rank list
    def _index(t: pa.Table, rank_ref=rank_ref) -> pa.Table:
        rank = ray.get(rank_ref)
        buckets, docs, sizes, toks = [], [], [], []
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        for did, txt in zip(ids, t.column("text").to_pylist()):
            rs = sorted(rank[w] for w in set((txt or "").split()))
            if not rs:
                continue
            p = _prefix_len(len(rs))
            for b in rs[:p]:
                buckets.append(b)
                docs.append(int(did))
                sizes.append(len(rs))
                toks.append(rs)
        return pa.table(
            {
                "bucket": pa.array(buckets, pa.int64()),
                "doc_id": pa.array(docs, pa.int64()),
                "size": pa.array(sizes, pa.int64()),
                "toks": pa.array(toks, pa.list_(pa.int64())),
            }
        )

    from .relational import _schema_guard

    verified = _schema_guard(
        ds.map_batches(_index, batch_format="pyarrow")
        .groupby("bucket")
        .map_groups(_bucket_pairs, batch_format="pandas"),
        pa.schema(
            [
                ("doc_a", pa.int64()),
                ("doc_b", pa.int64()),
                ("n_common", pa.int64()),
                ("size_a", pa.int64()),
                ("size_b", pa.int64()),
            ]
        ),
    )
    # ownership dedupe means every pair leaves the bucket stage
    # exactly once — no second keyed exchange (which also retires the
    # chained-hash-shuffle empty-block hazard this stage used to
    # repartition around)
    pairs = verified

    def _score(t: pa.Table) -> pa.Table:
        i = t.column("n_common").to_numpy().astype(np.float64)
        u = (
            t.column("size_a").to_numpy()
            + t.column("size_b").to_numpy()
            - t.column("n_common").to_numpy()
        ).astype(np.float64)
        jac = np.floor(1e6 * i / u + 0.5).astype(np.int64)  # positive
        return pa.table(
            {
                "doc_a": t.column("doc_a"),
                "doc_b": t.column("doc_b"),
                "n_common": t.column("n_common"),
                "size_a": t.column("size_a"),
                "size_b": t.column("size_b"),
                "jaccard_e6": pa.array(jac),
            }
        )

    return pairs.map_batches(_score, batch_format="pyarrow")


SQL_SSJOIN = rf"""
WITH tok AS (
  SELECT DISTINCT doc_id, unnest(regexp_extract_all(coalesce(text, ''),
                                 '\S+')) AS term
  FROM documents),
sz AS (SELECT doc_id, cast(count(*) AS BIGINT) AS n FROM tok GROUP BY 1),
i AS (
  SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
         cast(count(*) AS BIGINT) AS n_common
  FROM tok a JOIN tok b ON b.term = a.term AND b.doc_id > a.doc_id
  GROUP BY 1, 2)
SELECT i.doc_a, i.doc_b, i.n_common, sa.n AS size_a, sb.n AS size_b,
       cast(round(1000000.0 * i.n_common
                  / (sa.n + sb.n - i.n_common), 0) AS BIGINT) AS jaccard_e6
FROM i
JOIN sz sa ON sa.doc_id = i.doc_a
JOIN sz sb ON sb.doc_id = i.doc_b
WHERE ({_TAU_DEN + _TAU_NUM}) * i.n_common >= {_TAU_NUM} * (sa.n + sb.n)
"""


QUERIES = {
    "ssjoin_prefix": q_ssjoin_prefix,
}

ORACLE_SQL = {
    "ssjoin_prefix": SQL_SSJOIN,
}
