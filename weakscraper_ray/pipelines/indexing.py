"""Indexing-family operators: inverted-index build (capped posting
lists) and fuzzy dedup via blocked edit distance — the two classic
"search-engine side" passes of a web-corpus pipeline.

Scale shapes:

- ``inverted_index``: per-batch partial posting lists (a batch
  contributes at most CAP doc ids + one partial df count per token),
  then one ``groupby(token)`` exchange whose payload is bounded by
  vocabulary × CAP — NOT by corpus size. Full per-token document
  frequency is kept exact (summed partials) while the posting list is
  explicitly capped; ``df > CAP`` in the output marks the truncation,
  so no silent cap (repo rule). Production engines tier dense tokens
  exactly this way (cap/skip stopword postings, keep df for scoring).
- ``dedup_edit``: blocking by a 20-char text prefix (the classic
  sorted-neighborhood/prefix blocking idiom), then per-block all-pairs
  banded Levenshtein on a 120-char window. Only (doc_id, prefix,
  window) triples shuffle — never the document. Partitioning
  assumption (documented per SURVEY.md "custom operators"): block
  sizes are bounded by prefix selectivity; a boilerplate-heavy corpus
  where thousands of docs share one prefix needs a heavy-prefix
  pre-pass (heavy_hitter-style) routing hot blocks to a capped
  sampled compare, same as the minhash bucket cap.

Both oracled exactly in DuckDB (integer distances, string postings):
the Levenshtein DP here and DuckDB's ``levenshtein()`` compute the
same unit-cost edit distance over characters.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import by_shard
from .relational import _i64_away_np, _read

# =====================================================================
# Inverted index: exact df + capped posting lists
# =====================================================================

#: posting-list cap (ids kept per token: the CAP smallest doc_ids)
_POSTING_CAP = 20


def q_inverted_index(sf_dir: str):
    """token → (exact document frequency, first-CAP posting list) over
    the documents table. The partial-aggregation shape keeps the
    exchange at vocabulary-size payloads (Heaps' law bound, same
    assumption as oov_rate's vocabulary pass)."""
    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _partial(batch: pa.Table) -> pa.Table:
        rows, toks = _explode_tokens(batch)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        df = (
            pd.DataFrame({"doc_id": doc_ids[rows], "w": toks})
            .drop_duplicates()  # a doc lives in ONE row → batch-local
            .sort_values(["w", "doc_id"], kind="mergesort")
        )
        g = df.groupby("w", sort=True)
        out = g.agg(
            df_part=("doc_id", "size"),
            ids=("doc_id", lambda s: ",".join(map(str, s.iloc[:_POSTING_CAP]))),
        ).reset_index()
        return pa.Table.from_pandas(out, preserve_index=False)

    def _merge(group: pd.DataFrame) -> pd.DataFrame:
        ids = np.sort(
            np.concatenate(
                [
                    np.fromiter(s.split(","), dtype=np.int64)
                    for s in group["ids"]
                ]
            )
        )[:_POSTING_CAP]
        return pd.DataFrame(
            {
                "w": [group["w"].iloc[0]],
                "df": np.array([group["df_part"].sum()], dtype=np.int64),
                "postings": [",".join(map(str, ids))],
            }
        )

    return (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("w")
        .map_groups(_merge, batch_format="pandas")
    )


SQL_INVERTED_INDEX = rf"""
WITH toks AS (
    SELECT DISTINCT doc_id,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
agg AS (SELECT w, count(*) AS df FROM t2 GROUP BY w),
top AS (SELECT w, doc_id,
               row_number() OVER (PARTITION BY w ORDER BY doc_id) AS rn
        FROM t2)
SELECT a.w,
       cast(a.df AS BIGINT) AS df,
       string_agg(cast(t.doc_id AS VARCHAR), ',' ORDER BY t.doc_id)
           AS postings
FROM agg a JOIN top t ON t.w = a.w AND t.rn <= {_POSTING_CAP}
GROUP BY a.w, a.df
"""


# =====================================================================
# Conjunctive search: AND-of-terms with tf scoring (map-only)
# =====================================================================

#: fixed conjunctive query (mid-frequency corpus terms)
_SEARCH_TERMS = ("batch", "merge")


def q_search_index(sf_dir: str):
    """Documents containing ALL query terms, with per-term and total
    term frequencies — document-at-a-time conjunctive scoring (the
    execution a postings intersection performs, expressed as one
    streaming pass: each document lives in one row, so the AND test
    and the tf counts are batch-local and NO exchange exists). The
    tokenizer is the index family's whitespace rule, shared with
    ``inverted_index``'s SQL twin."""
    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    terms = list(_SEARCH_TERMS)

    def _score(batch: pa.Table) -> pa.Table:
        rows, toks = _explode_tokens(batch)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        n = len(doc_ids)
        tf = np.zeros((n, len(terms)), dtype=np.int64)
        for j, w in enumerate(terms):
            hit = toks == w
            np.add.at(tf[:, j], rows[hit], 1)
        keep = (tf > 0).all(axis=1)
        cols = {"doc_id": pa.array(doc_ids[keep], pa.int64())}
        for j, w in enumerate(terms):
            cols[f"tf_{w}"] = pa.array(tf[keep, j])
        cols["tf_total"] = pa.array(tf[keep].sum(axis=1))
        return pa.table(cols)

    return ds.map_batches(_score, batch_format="pyarrow")


SQL_SEARCH_INDEX = rf"""
WITH toks AS (
    SELECT doc_id,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
tf AS (
    SELECT doc_id,
           sum(CASE WHEN w = '{_SEARCH_TERMS[0]}' THEN 1 ELSE 0 END) AS tf_a,
           sum(CASE WHEN w = '{_SEARCH_TERMS[1]}' THEN 1 ELSE 0 END) AS tf_b
    FROM toks GROUP BY doc_id)
SELECT doc_id,
       cast(tf_a AS BIGINT) AS tf_{_SEARCH_TERMS[0]},
       cast(tf_b AS BIGINT) AS tf_{_SEARCH_TERMS[1]},
       cast(tf_a + tf_b AS BIGINT) AS tf_total
FROM tf WHERE tf_a > 0 AND tf_b > 0
"""


# =====================================================================
# Fuzzy dedup: prefix blocking + banded Levenshtein verify
# =====================================================================

_BLOCK_PREFIX = 20  # blocking key: first 20 chars
_EDIT_WINDOW = 120  # compare window: first 120 chars
_EDIT_MAX = 24      # keep pairs with distance <= 20% of the window


def levenshtein(a: str, b: str) -> int:
    """Unit-cost edit distance, row-vectorized DP: the insertion
    chain's left-to-right dependency is resolved with the
    ``min-accumulate of (row - arange)`` identity, so the inner loop
    is numpy, not Python (O(|a|) numpy passes of width |b|)."""
    if a == b:
        return 0
    if not a or not b:
        return max(len(a), len(b))
    bv = np.array(list(b))
    steps = np.arange(len(b) + 1)
    prev = steps.astype(np.int64)
    cur = np.empty(len(b) + 1, dtype=np.int64)
    for i, ca in enumerate(a, 1):
        cur[0] = i
        np.minimum(prev[:-1] + (bv != ca), prev[1:] + 1, out=cur[1:])
        # fix-up insertions: m[j] = min_{k<=j} cur[k] + (j - k)
        cur = np.minimum.accumulate(cur - steps) + steps
        prev, cur = cur, prev
    return int(prev[-1])


def q_dedup_edit(sf_dir: str):
    """Near-duplicate pairs by blocked edit distance: docs sharing a
    20-char prefix whose 120-char windows are within Levenshtein
    _EDIT_MAX. Emits (doc_a, doc_b, edit_dist) with doc_a < doc_b.

    The exchange is ``by_shard`` on the prefix, so the UDF runs once
    per shard, not once per distinct prefix; each fold iterates its
    shard's prefix blocks in-process."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _block(batch: pa.Table) -> pa.Table:
        text = pc.coalesce(batch.column("text"), pa.scalar(""))
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "pfx": pc.utf8_slice_codeunits(text, 0, _BLOCK_PREFIX),
                "t": pc.utf8_slice_codeunits(text, 0, _EDIT_WINDOW),
            }
        )

    def _pairs(shard: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b, out_d = [], [], []
        for _, g in shard.sort_values("doc_id").groupby("pfx", sort=False):
            ids = g["doc_id"].to_numpy()
            txt = g["t"].to_numpy()
            for i in range(len(g)):
                for j in range(i + 1, len(g)):
                    d = levenshtein(txt[i], txt[j])
                    if d <= _EDIT_MAX:
                        out_a.append(ids[i])
                        out_b.append(ids[j])
                        out_d.append(d)
        return pd.DataFrame(
            {
                "doc_a": np.array(out_a, dtype=np.int64),
                "doc_b": np.array(out_b, dtype=np.int64),
                "edit_dist": np.array(out_d, dtype=np.int64),
            }
        )

    return by_shard(
        ds.map_batches(_block, batch_format="pyarrow"), "pfx", _pairs,
        pa.schema(
            [
                ("doc_a", pa.int64()),
                ("doc_b", pa.int64()),
                ("edit_dist", pa.int64()),
            ]
        ),
    )


SQL_DEDUP_EDIT = f"""
WITH d AS (
    SELECT doc_id,
           substr(coalesce(text, ''), 1, {_BLOCK_PREFIX}) AS pfx,
           substr(coalesce(text, ''), 1, {_EDIT_WINDOW}) AS t
    FROM documents)
SELECT a.doc_id AS doc_a, b.doc_id AS doc_b,
       cast(levenshtein(a.t, b.t) AS BIGINT) AS edit_dist
FROM d a JOIN d b ON a.pfx = b.pfx AND a.doc_id < b.doc_id
WHERE levenshtein(a.t, b.t) <= {_EDIT_MAX}
"""


# =====================================================================
# BM25 scoring: corpus stats pass → broadcast → streaming score
# =====================================================================

_BM25_K1 = 1.5
_BM25_B = 0.75
_BM25_TERMS = 3  # query = the corpus' top-3 df terms (deterministic)


def q_bm25_score(sf_dir: str):
    """Okapi BM25 relevance of every document against a deterministic
    query (the corpus' top-``_BM25_TERMS`` document-frequency terms,
    ties broken by term) — the classic retrieval scoring pass over an
    inverted corpus (public: Robertson & Zaragoza 2009).

    Two passes, both scale-shaped:
    1. stats: per-batch (token, df-partial) + (N, Σdl) partials → one
       vocabulary-bounded ``groupby(token)`` (Heaps' law) + a 2-number
       global reduce; the top-term cut and (df, N, avgdl) broadcast
       once via ``ray.put``;
    2. scoring: one streaming ``map_batches`` — per-row tf via
       ``np.bincount`` against the broadcast terms, no shuffle.

    Emits (doc_id, bm25_e6); docs matching no query term drop (mirror
    of the SQL tf-join). Float expression order mirrors the SQL
    op-for-op; e6 rounding is 10 orders above double noise."""
    import ray
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _stats_partial(batch: pa.Table) -> pa.Table:
        rows, toks = _explode_tokens(batch)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        df = (
            pd.DataFrame({"doc_id": doc_ids[rows], "w": toks})
            .drop_duplicates()
            .groupby("w", sort=True)
            .size()
        )
        # sentinel rows ride the same exchange: N and Σdl partials
        # (token "" can never collide — _explode_tokens drops empties)
        return pa.table(
            {
                "w": pa.array(
                    list(df.index) + ["\x00N", "\x00SL"], pa.string()
                ),
                "n": pa.array(
                    list(df.to_numpy().astype("int64"))
                    + [len(batch), len(toks)],
                    pa.int64(),
                ),
            }
        )

    stats = (
        ds.map_batches(_stats_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("n", alias_name="n"))
        .take_all()
    )  # vocabulary-bounded
    by_w = {r["w"]: r["n"] for r in stats}
    n_docs = by_w.pop("\x00N")
    sum_len = by_w.pop("\x00SL")
    avgdl = sum_len / n_docs  # one double, identical on both sides
    terms = sorted(by_w, key=lambda w: (-by_w[w], w))[:_BM25_TERMS]
    model = ray.put(
        {
            "terms": terms,
            "df": np.array([by_w[w] for w in terms], dtype=np.float64),
            "n": float(n_docs),
            "avgdl": avgdl,
        }
    )

    def _score(batch: pa.Table) -> pa.Table:
        m = ray.get(model)
        rows, toks = _explode_tokens(batch)
        dl = np.bincount(rows, minlength=len(batch)).astype(np.float64)
        idf = np.log((m["n"] - m["df"] + 0.5) / (m["df"] + 0.5) + 1.0)
        score = np.zeros(len(batch))
        tf_any = np.zeros(len(batch), dtype=bool)
        for ti, term in enumerate(m["terms"]):
            tf = np.bincount(
                rows[toks == term], minlength=len(batch)
            ).astype(np.float64)
            tf_any |= tf > 0
            denom = tf + _BM25_K1 * (
                1.0 - _BM25_B + _BM25_B * dl / m["avgdl"]
            )
            score += np.where(
                tf > 0, idf[ti] * (tf * (_BM25_K1 + 1.0)) / denom, 0.0
            )
        keep = tf_any
        return pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().filter(
                    pa.array(keep)
                ),
                "bm25_e6": pa.array(
                    _i64_away_np(score[keep], 1e6), pa.int64()
                ),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


SQL_BM25 = rf"""
WITH toks AS (
    SELECT doc_id,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
docs2 AS (
    SELECT d.doc_id, coalesce(l.dl, 0) AS dl
    FROM documents d LEFT JOIN
         (SELECT doc_id, count(*) AS dl FROM t2 GROUP BY doc_id) l
         USING (doc_id)),
stats AS (
    SELECT cast(count(*) AS DOUBLE) AS n,
           cast(sum(dl) AS BIGINT) AS suml
    FROM docs2),
dfs AS (SELECT w, count(DISTINCT doc_id) AS df FROM t2 GROUP BY w),
terms AS (SELECT w, cast(df AS DOUBLE) AS df FROM dfs
          ORDER BY df DESC, w LIMIT {_BM25_TERMS}),
tf AS (SELECT t2.doc_id, t2.w, cast(count(*) AS DOUBLE) AS tf
       FROM t2 JOIN terms USING (w) GROUP BY t2.doc_id, t2.w)
SELECT tf.doc_id,
       cast(round(sum(
           ln((s.n - tm.df + 0.5) / (tm.df + 0.5) + 1.0)
           * (tf.tf * ({_BM25_K1} + 1.0))
           / (tf.tf + {_BM25_K1} * (1.0 - {_BM25_B} + {_BM25_B}
              * cast(d.dl AS DOUBLE) / (cast(s.suml AS DOUBLE) / s.n)))
       ) * 1000000, 0) AS BIGINT) AS bm25_e6
FROM tf
JOIN terms tm USING (w)
JOIN docs2 d ON d.doc_id = tf.doc_id
CROSS JOIN stats s
GROUP BY tf.doc_id
"""


# =====================================================================
# Cross-document duplicate n-gram signal (ExactSubstr-style, by n-gram)
# =====================================================================

_DUPGRAM_K = 5


def q_dup_ngram_fraction(sf_dir: str):
    """Per-document count of distinct 5-grams that also occur in at
    least one OTHER document — the cross-document repetition signal
    behind exact-substring dedup (public idiom: Lee et al. 2022,
    "Deduplicating Training Data Makes Language Models Better",
    approximated at n-gram granularity) and the FineWeb duplicate-
    n-gram quality filters. Emits (doc_id, n_grams, n_dup) — the
    fraction is n_dup/n_grams, left to the caller as integers so the
    oracle stays float-free.

    Shape: distinct (gram, doc_id) pairs per batch (a doc lives in one
    row, so batch-local distinct is global) → one ``by_shard`` exchange
    on the gram (the pack_conversations lesson: per-gram groups are
    tiny, so the UDF runs once per shard and a C-level pandas groupby
    inside tags every member with ``dup = |gram group| >= 2`` — one
    UDF call per shard instead of one per distinct gram; measured
    17 s → ~3 s at sf0.01) → one ``groupby(doc_id)``
    Sum/Count. No joins, no broadcast; the exchanges carry (gram, id)
    and (id, flag) rows only. At 100 TB the gram string would be a
    64-bit hash (documented scale path — the string key keeps the
    oracle exact here); gram-key skew (a gram in millions of docs) is
    bounded because the signal only needs ``>= 2`` — a capped-count
    combiner suffices, same policy as the LSH bucket caps."""
    from ray.data.aggregate import Count, Sum

    from .curation import _explode_tokens

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    k = _DUPGRAM_K

    def _pairs(batch: pa.Table) -> pa.Table:
        rows, toks = _explode_tokens(batch)
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)
        if len(toks) < k:
            return pa.table(
                {
                    "gram": pa.array([], pa.string()),
                    "doc_id": pa.array([], pa.int64()),
                }
            )
        valid = rows[: -(k - 1)] == rows[k - 1 :]
        gram = toks[: -(k - 1)].astype(object)
        for j in range(1, k):
            gram = gram + " " + toks[j : len(toks) - (k - 1) + j].astype(object)
        df = pd.DataFrame(
            {"gram": gram[valid], "row": rows[: -(k - 1)][valid]}
        ).drop_duplicates()
        return pa.table(
            {
                "gram": pa.array(df["gram"].to_numpy(), pa.string()),
                "doc_id": pa.array(
                    doc_ids[df["row"].to_numpy()], pa.int64()
                ),
            }
        )

    def _tag(shard: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pass per SHARD: gram group sizes at C speed
        sizes = shard.groupby("gram", sort=False)["doc_id"].transform("size")
        return pd.DataFrame(
            {
                "doc_id": shard["doc_id"].to_numpy(),
                "dup": (sizes.to_numpy() >= 2).astype(np.int64),
            }
        )

    tagged = by_shard(
        ds.map_batches(_pairs, batch_format="pyarrow"), "gram", _tag,
        pa.schema([("doc_id", pa.int64()), ("dup", pa.int64())]),
    )
    agg = tagged.groupby("doc_id").aggregate(
        Count(alias_name="n_grams"), Sum("dup", alias_name="n_dup")
    )
    return agg.map_batches(
        lambda t: pa.table(
            {
                "doc_id": t.column("doc_id").cast(pa.int64()),
                "n_grams": t.column("n_grams").cast(pa.int64()),
                "n_dup": t.column("n_dup").cast(pa.int64()),
            }
        ),
        batch_format="pyarrow",
    )


SQL_DUP_NGRAM = rf"""
WITH d AS (
    SELECT doc_id,
           list_filter(
               string_split_regex(lower(coalesce(text, '')), '\s+'),
               x -> x <> '') AS ws
    FROM documents),
g AS (
    SELECT doc_id,
           unnest(list_distinct(list_transform(
               range(1, len(ws) - {_DUPGRAM_K - 2}),
               i -> ws[i] || ' ' || ws[i+1] || ' ' || ws[i+2] || ' ' ||
                    ws[i+3] || ' ' || ws[i+4]))) AS gram
    FROM d),
df AS (SELECT gram, count(*) AS nd FROM g GROUP BY gram)
SELECT g.doc_id,
       cast(count(*) AS BIGINT) AS n_grams,
       cast(sum(CASE WHEN df.nd >= 2 THEN 1 ELSE 0 END) AS BIGINT)
           AS n_dup
FROM g JOIN df USING (gram)
GROUP BY g.doc_id
"""


QUERIES = {
    "inverted_index": q_inverted_index,
    "search_index": q_search_index,
    "dedup_edit": q_dedup_edit,
    "bm25_score": q_bm25_score,
    "dup_ngram_fraction": q_dup_ngram_fraction,
}

ORACLE_SQL = {
    "inverted_index": SQL_INVERTED_INDEX,
    "search_index": SQL_SEARCH_INDEX,
    "dedup_edit": SQL_DEDUP_EDIT,
    "bm25_score": SQL_BM25,
    "dup_ngram_fraction": SQL_DUP_NGRAM,
}
