"""Round-3 continuation #12: retrieval / language-model-curation
family — the lexical+semantic plumbing a training-data platform runs
between "corpus on disk" and "ranked, scored, model-ready text":

- ``rrf_fusion``     hybrid retrieval: reciprocal-rank fusion of the
                     BM25 lexical ranking and the embedding-cosine
                     semantic ranking (Cormack, Clarke & Büttcher,
                     SIGIR'09) — integer-exact because both input
                     rankings are already hash-exact integer columns
- ``stupid_backoff`` held-out n-gram LM scoring with the Stupid
                     Backoff rule (Brants et al., EMNLP'07) — the
                     CCNet-style "train a cheap LM on a clean slice,
                     perplexity-score everything" curation filter
- ``skipgram_pairs`` windowed (center, context) co-occurrence pair
                     counts — the word2vec/GloVe training-pair
                     generation pass (Mikolov et al. 2013), the
                     positional generalization of ``pmi_bigrams``'
                     adjacent-only counts

Exactness strategy (repo conventions — see ``inference.py`` /
``monitor.py`` headers): every logarithm is quantized to an e6
integer BEFORE any order-sensitive sum (the ``psi_drift`` lesson);
rank lists are cut under a deterministic total order (score desc, id
asc) over ALREADY-INTEGER scores, so rank assignment is engine-
independent; the RRF sum is pure integer arithmetic
(``10^9 // (60 + rank)``, positive → DuckDB's truncating ``//`` ==
Python's floor).

Scale notes: ``rrf_fusion`` fuses two top-K lists — each leg is a
distributed score pass (the green ``bm25_score`` / ``knn_cosine``
machinery) followed by a distributed (score, id) sort cut at K; only
the 2·K surviving (id, rank) rows ever reach the driver.
``stupid_backoff`` broadcasts the trained count tables once
(vocabulary-bounded, Heaps' law — the same assumption as
``pmi_bigrams``) and scores in ONE streaming map with no exchange at
all: a document's bigrams are batch-local because a document is one
row.  ``skipgram_pairs`` ships per-batch (center, context, n)
partials — payload is the batch's observed pair vocabulary, never the
token stream — into one bounded ``groupby`` exchange.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from .indexing import SQL_BM25, q_bm25_score
from .relational import _i64_away_np, _p, _read
from .tokenizer import _bigram_partial, _term_partial

#: RRF constants: list depth K and the standard k=60 damping.
_RRF_K = 100
_RRF_C = 60
#: semantic query = the embedding with vec_id 0 (mirrors knn_cosine's
#: "lowest vec_ids are the query set" convention)
_RRF_QID = 0

#: Stupid Backoff: score bigrams of EVERY document against counts
#: trained on the even-doc_id half — a held-out split, so the backoff
#: branch actually fires (scoring a corpus against its own counts
#: never backs off: every observed bigram has c > 0).
_SB_ALPHA = 0.4  # the published backoff multiplier

#: skipgram window radius (symmetric) and output cut
_SG_WINDOW = 3
_SG_TOPK = 50


# =====================================================================
# Reciprocal-rank fusion (hybrid lexical + semantic retrieval)
# =====================================================================


def q_rrf_fusion(sf_dir: str):
    """Fuse the BM25 lexical top-K and the cosine semantic top-K into
    one hybrid ranking with RRF: score(d) = Σ_lists 1/(60 + rank_d),
    kept integer as ``10^9 // (60 + rank)``.

    Id alignment: embeddings row ``vec_id`` IS the document id — the
    repo-wide convention already used by ``embed_knn`` /
    ``label_knn_agreement``.  The semantic list INCLUDES the query
    vector itself at rank 1 (mirror of the SQL cross join); RRF is
    indifferent — fusion weights, not similarity values, are summed.

    Both legs are distributed: the lexical scores come from the green
    ``bm25_score`` pass, the semantic scores from the green
    ``knn_cosine`` machinery (broadcast query, partial top-k); each is
    cut at K = 100 under (integer score desc, id asc), so only 2·K
    (id, rank) rows reach the driver for the fusion sum."""
    import pyarrow.parquet as pq

    from ..functions.similarity import knn_brute_force

    # ---- lexical leg: distributed sort cut at K, ranks on K rows
    lex = (
        q_bm25_score(sf_dir)
        .sort(["bm25_e6", "doc_id"], descending=[True, False])
        .limit(_RRF_K)
        .to_pandas()
        .sort_values(["bm25_e6", "doc_id"], ascending=[False, True],
                     kind="mergesort")
        .reset_index(drop=True)
    )
    lex_rank = {int(d): r + 1 for r, d in enumerate(lex["doc_id"])}

    # ---- semantic leg: broadcast query vector, partial top-k
    qt = pq.read_table(_p(sf_dir, "embeddings"), columns=["vec_id", "embedding"])
    qsel = qt.filter(pc.equal(qt.column("vec_id"), _RRF_QID))
    sem = (
        knn_brute_force(
            _read(sf_dir, "embeddings", ["vec_id", "embedding"]),
            [_RRF_QID],
            qsel.column("embedding").to_pylist(),
            k=_RRF_K,
        )
        .to_pandas()
    )
    sem["score_e4"] = _i64_away_np(sem["score"].to_numpy(), 10000.0)
    sem = sem.sort_values(["score_e4", "vec_id"], ascending=[False, True],
                          kind="mergesort").head(_RRF_K)
    sem_rank = {int(d): r + 1 for r, d in enumerate(sem["vec_id"])}

    # ---- fusion over <= 2K ids (pure integers)
    fused = {}
    for table in (lex_rank, sem_rank):
        for d, r in table.items():
            n, s = fused.get(d, (0, 0))
            fused[d] = (n + 1, s + 1_000_000_000 // (_RRF_C + r))
    ids = sorted(fused)
    return pd.DataFrame(
        {
            "doc_id": pd.array(ids, dtype="int64"),
            "n_lists": pd.array([fused[d][0] for d in ids], dtype="int64"),
            "rrf_e9": pd.array([fused[d][1] for d in ids], dtype="int64"),
        }
    )


def _sql_rrf(sql_bm25: str) -> str:
    return f"""
WITH lex AS (SELECT * FROM ({sql_bm25})),
lexr AS (
  SELECT doc_id,
         row_number() OVER (ORDER BY bm25_e6 DESC, doc_id) AS r
  FROM lex),
qv AS (SELECT embedding FROM embeddings WHERE vec_id = {_RRF_QID}),
sem AS (
  SELECT e.vec_id AS doc_id,
         cast(round(list_cosine_similarity(qv.embedding, e.embedding)
                    * 10000, 0) AS BIGINT) AS c
  FROM embeddings e CROSS JOIN qv),
semr AS (
  SELECT doc_id, row_number() OVER (ORDER BY c DESC, doc_id) AS r
  FROM sem),
u AS (
  SELECT doc_id, r FROM lexr WHERE r <= {_RRF_K}
  UNION ALL
  SELECT doc_id, r FROM semr WHERE r <= {_RRF_K})
SELECT doc_id, cast(count(*) AS BIGINT) AS n_lists,
       cast(sum(1000000000 // ({_RRF_C} + r)) AS BIGINT) AS rrf_e9
FROM u GROUP BY doc_id
"""


# =====================================================================
# Stupid Backoff held-out LM scoring
# =====================================================================


def _doc_token_runs(batch: pa.Table):
    """(doc_ids, flat tokens, list offsets) for a documents batch —
    trimmed then \\s+-split, so no empty tokens anywhere (the
    ``_bigram_partial`` tokenization, mirror of ``regexp_extract_all
    (trimmed, '\\S+')``); docs that trim to '' are dropped."""
    txt = pc.replace_substring_regex(
        batch.column("text"), pattern=r"^\s+|\s+$", replacement=""
    )
    keep = pc.and_kleene(pc.is_valid(txt), pc.not_equal(txt, ""))
    keep = pc.fill_null(keep, False)
    ids = batch.column("doc_id").filter(keep).to_numpy(zero_copy_only=False)
    toks = pc.split_pattern_regex(txt.filter(keep), pattern=r"\s+")
    la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    flat = la.flatten().to_pandas().to_numpy()
    offs = np.asarray(la.offsets)
    return ids, flat, offs


def q_stupid_backoff(sf_dir: str):
    """Per-document Stupid Backoff bigram log-score against counts
    trained on the even-``doc_id`` half of the corpus:

        S(w2 | w1) = c(w1 w2) / c(w1)            if c(w1 w2) > 0
                   = 0.4 · (c(w2) + 1) / (N + V)  otherwise

    (add-one on the unigram backoff keeps OOV words finite; N = train
    tokens, V = train vocabulary).  Emits (doc_id, n_bigrams,
    n_backoff, sb_e6) with each ln term e6-quantized before the
    integer per-document sum — the held-out LM quality filter (CCNet /
    Brants et al. '07), calibrated sibling of ``bigram_logprob``.

    Shape: two vocabulary-bounded count exchanges over the TRAIN half
    (payload = batch vocabulary), both tables broadcast once via
    ``ray.put``; scoring is ONE streaming map with no exchange — a
    document is one row, so its bigrams never cross a batch."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _even_only(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0)
        )

    train = ds.map_batches(_even_only, batch_format="pyarrow")
    uni = (
        train.map_batches(_term_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # vocabulary-bounded
    )
    bi = (
        train.map_batches(_bigram_partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    n_train = float(int(uni["n"].sum()))
    v_train = float(len(uni))
    uni_ref = ray.put(dict(zip(uni["term"], uni["n"].astype(np.int64))))
    bi_ref = ray.put(dict(zip(bi["bigram"], bi["n"].astype(np.int64))))

    def _score(batch: pa.Table) -> pa.Table:
        ucnt, bcnt = ray.get(uni_ref), ray.get(bi_ref)
        ids, flat, offs = _doc_token_runs(batch)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_bigrams": pa.array([], pa.int64()),
                "n_backoff": pa.array([], pa.int64()),
                "sb_e6": pa.array([], pa.int64()),
            }
        )
        if len(flat) < 2:
            return empty
        valid = np.ones(len(flat) - 1, dtype=bool)
        valid[offs[1:-1] - 1] = False  # doc-boundary pairs
        if not valid.any():
            return empty
        left = pd.Series(flat[:-1][valid])
        right = pd.Series(flat[1:][valid])
        doc_of = np.repeat(np.arange(len(ids)), np.diff(offs))
        rows = doc_of[:-1][valid]
        nab = (left + " " + right).map(bcnt).to_numpy(dtype=np.float64)
        na = left.map(ucnt).to_numpy(dtype=np.float64)
        nb = right.map(ucnt).to_numpy(dtype=np.float64)
        hit = ~np.isnan(nab)
        # token-for-token mirror of the SQL CASE (each branch only
        # evaluated where selected — np.errstate silences the unused
        # lane of np.where)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(
                hit,
                np.log(nab / na),
                np.log(
                    _SB_ALPHA * (np.nan_to_num(nb) + 1.0)
                    / (n_train + v_train)
                ),
            )
        t_e6 = _i64_away_np(term, 1e6)
        n_big = np.bincount(rows, minlength=len(ids)).astype(np.int64)
        n_bk = np.bincount(
            rows, weights=(~hit).astype(np.float64), minlength=len(ids)
        ).astype(np.int64)
        s_e6 = np.bincount(
            rows, weights=t_e6.astype(np.float64), minlength=len(ids)
        ).astype(np.int64)  # e6 ints << 2^53: float accumulation exact
        keep = n_big > 0
        return pa.table(
            {
                "doc_id": pa.array(ids[keep].astype(np.int64), pa.int64()),
                "n_bigrams": pa.array(n_big[keep], pa.int64()),
                "n_backoff": pa.array(n_bk[keep], pa.int64()),
                "sb_e6": pa.array(s_e6[keep], pa.int64()),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


SQL_STUPID_BACKOFF = rf"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents
  WHERE regexp_replace(coalesce(text, ''), '^\s+|\s+$', '', 'g') <> ''),
tr_u AS (
  SELECT unnest(toks) AS term FROM l WHERE doc_id % 2 = 0),
uc AS (SELECT term, count(*) AS n FROM tr_u GROUP BY term),
bc AS (
  SELECT toks[i] || ' ' || toks[i+1] AS bigram, count(*) AS n
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)
  WHERE doc_id % 2 = 0
  GROUP BY 1),
tot AS (
  SELECT (SELECT cast(count(*) AS DOUBLE) FROM tr_u) AS nn,
         (SELECT cast(count(*) AS DOUBLE) FROM uc) AS vv),
sc AS (
  SELECT l.doc_id, toks[i] AS a, toks[i+1] AS b
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)),
term AS (
  SELECT sc.doc_id,
         CASE WHEN bc.n IS NULL THEN 1 ELSE 0 END AS bk,
         CASE WHEN bc.n IS NOT NULL THEN
                cast(round(ln(cast(bc.n AS DOUBLE)
                              / cast(ua.n AS DOUBLE)) * 1000000, 0)
                     AS BIGINT)
              ELSE
                cast(round(ln({_SB_ALPHA}
                              * (cast(coalesce(ub.n, 0) AS DOUBLE) + 1.0)
                              / (tot.nn + tot.vv)) * 1000000, 0)
                     AS BIGINT)
         END AS s_e6
  FROM sc
  LEFT JOIN bc ON bc.bigram = sc.a || ' ' || sc.b
  LEFT JOIN uc ua ON ua.term = sc.a
  LEFT JOIN uc ub ON ub.term = sc.b
  CROSS JOIN tot)
SELECT doc_id,
       cast(count(*) AS BIGINT) AS n_bigrams,
       cast(sum(bk) AS BIGINT) AS n_backoff,
       cast(sum(s_e6) AS BIGINT) AS sb_e6
FROM term GROUP BY doc_id
"""


# =====================================================================
# Skip-gram (center, context) pair generation
# =====================================================================


def q_skipgram_pairs(sf_dir: str):
    """Top-50 (center, context) co-occurrence pairs within a symmetric
    ±3-token window — the word2vec/GloVe training-pair generation pass.
    Ordered pairs: center w at position i co-occurs with context at
    i±d, d = 1..3 (adjacent duplicates of ``bigram_topk`` generalize to
    the full window).

    Shape: per-batch pair-count partials (payload = the batch's
    observed PAIR vocabulary, never the token stream) → one bounded
    ``groupby(center, context)`` exchange → distributed (n desc,
    center, context) sort cut at 50."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _pair_partial(batch: pa.Table) -> pa.Table:
        _, flat, offs = _doc_token_runs(batch)
        empty = pa.table(
            {
                "center": pa.array([], pa.string()),
                "context": pa.array([], pa.string()),
                "n": pa.array([], pa.int64()),
            }
        )
        if len(flat) < 2:
            return empty
        doc_of = np.repeat(np.arange(len(offs) - 1), np.diff(offs))
        cs, xs = [], []
        for d in range(1, _SG_WINDOW + 1):
            if d >= len(flat):
                break
            ok = doc_of[:-d] == doc_of[d:]
            a, b = flat[:-d][ok], flat[d:][ok]
            cs.append(a)
            xs.append(b)  # center = a, context d to the right
            cs.append(b)
            xs.append(a)  # center = b, context d to the left
        if not cs:
            return empty
        df = (
            pd.DataFrame({"center": np.concatenate(cs),
                          "context": np.concatenate(xs)})
            .groupby(["center", "context"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "center": pa.array(df["center"], pa.string()),
                "context": pa.array(df["context"], pa.string()),
                "n": pa.array(df["n"].to_numpy(), pa.int64()),
            }
        )

    return (
        ds.map_batches(_pair_partial, batch_format="pyarrow")
        .groupby(["center", "context"])
        .aggregate(Sum("n", alias_name="n"))
        .sort(["n", "center", "context"], descending=[True, False, False])
        .limit(_SG_TOPK)
    )


SQL_SKIPGRAM = rf"""
WITH l AS (
  SELECT regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents
  WHERE regexp_replace(coalesce(text, ''), '^\s+|\s+$', '', 'g') <> ''),
p AS (
  SELECT toks[i] AS center, toks[i + d] AS context
  FROM l,
       unnest(generate_series(1, len(toks))) AS t(i),
       unnest(generate_series(-{_SG_WINDOW}, {_SG_WINDOW})) AS s(d)
  WHERE d <> 0 AND i + d BETWEEN 1 AND len(toks))
SELECT center, context, cast(count(*) AS BIGINT) AS n
FROM p GROUP BY 1, 2
ORDER BY n DESC, center, context
LIMIT {_SG_TOPK}
"""


# =====================================================================
# Interpolated Kneser–Ney bigram scoring (continuation #15)
# =====================================================================

#: absolute discount D = 3/4 — exactly representable in binary, so
#: ``c - 0.75`` is one exact float op on both engines
_KN_D = 0.75


def q_kn_bigram(sf_dir: str):
    """Per-document interpolated Kneser–Ney bigram log-score against
    counts trained on the even-``doc_id`` half (Kneser & Ney 1995 /
    Chen & Goodman 1998 — the smoothing that beats Stupid Backoff by
    modeling CONTINUATION counts: "Francisco" is frequent but follows
    only "San", so its unigram backoff weight should be tiny):

        Pcont(w)  = (N1+(·w) + 1) / (N1+(··) + V + 1)       (add-one
                     keeps OOV finite; V = train unigram types)
        seen ctx:   P(w|v) = (max(c(vw) − 0.75, 0)
                              + 0.75 · N1+(v·) · Pcont(w)) / c(v)
        unseen ctx: P(w|v) = Pcont(w)

    where c(v) = Σ_w c(vw) (left-context total over TRAIN bigrams) and
    N1+(v·) / N1+(·w) are distinct right/left continuations. Emits
    (doc_id, n_bigrams, n_unseen_ctx, kn_e6) with every ln term
    e6-quantized before the integer per-document sum — the calibrated
    upgrade of ``stupid_backoff`` (same held-out split, same
    tokenizer, same scale shape: one vocabulary-bounded bigram
    exchange, model broadcast once via ``ray.put``, scoring is ONE
    streaming map with no exchange — a document is one row).

    The float expression is mirrored op-for-op against the SQL twin
    (left-assoc multiply chain, one add, one divide, libm ln — the
    ``zipf_slope`` ln-parity argument)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _even_only(t: pa.Table) -> pa.Table:
        return t.filter(
            pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0)
        )

    train = ds.map_batches(_even_only, batch_format="pyarrow")
    uni = (
        train.map_batches(_term_partial, batch_format="pyarrow")
        .groupby("term")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # vocabulary-bounded
    )
    bi = (
        train.map_batches(_bigram_partial, batch_format="pyarrow")
        .groupby("bigram")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    # driver-side model derivation over the BOUNDED bigram-type table
    # (the oracle's cv / n1f / n1p / tot CTEs, computed once)
    parts = bi["bigram"].str.split(" ", n=1, expand=True)
    left_tok, right_tok = parts[0], parts[1]
    nvals = bi["n"].astype(np.int64)
    cv = nvals.groupby(left_tok).sum()           # c(v) = Σ_w c(vw)
    n1f = left_tok.value_counts()                # N1+(v·)
    n1p = right_tok.value_counts()               # N1+(·w)
    nbi = float(len(bi))                         # N1+(··)
    vt = float(len(uni)) + 1.0                   # V + 1
    bi_ref = ray.put(dict(zip(bi["bigram"], nvals)))
    cv_ref = ray.put(cv.to_dict())
    n1f_ref = ray.put(n1f.to_dict())
    n1p_ref = ray.put(n1p.to_dict())

    def _score(batch: pa.Table) -> pa.Table:
        bcnt = ray.get(bi_ref)
        cvd, n1fd, n1pd = ray.get(cv_ref), ray.get(n1f_ref), ray.get(n1p_ref)
        ids, flat, offs = _doc_token_runs(batch)
        empty = pa.table(
            {
                "doc_id": pa.array([], pa.int64()),
                "n_bigrams": pa.array([], pa.int64()),
                "n_unseen_ctx": pa.array([], pa.int64()),
                "kn_e6": pa.array([], pa.int64()),
            }
        )
        if len(flat) < 2:
            return empty
        valid = np.ones(len(flat) - 1, dtype=bool)
        valid[offs[1:-1] - 1] = False  # doc-boundary pairs
        if not valid.any():
            return empty
        left = pd.Series(flat[:-1][valid])
        right = pd.Series(flat[1:][valid])
        doc_of = np.repeat(np.arange(len(ids)), np.diff(offs))
        rows = doc_of[:-1][valid]
        c_vw = (left + " " + right).map(bcnt).to_numpy(dtype=np.float64)
        c_v = left.map(cvd).to_numpy(dtype=np.float64)
        f_v = left.map(n1fd).to_numpy(dtype=np.float64)
        p_w = right.map(n1pd).to_numpy(dtype=np.float64)
        # op-for-op mirror of the SQL CASE: pcont first (one add, one
        # divide), then the left-assoc 0.75 * N1f * pcont chain
        pcont = (np.nan_to_num(p_w) + 1.0) / (nbi + vt)
        seen = ~np.isnan(c_v)
        with np.errstate(divide="ignore", invalid="ignore"):
            term = np.where(
                seen,
                np.log(
                    (np.maximum(np.nan_to_num(c_vw) - _KN_D, 0.0)
                     + _KN_D * np.nan_to_num(f_v) * pcont)
                    / c_v
                ),
                np.log(pcont),
            )
        t_e6 = _i64_away_np(term, 1e6)
        n_big = np.bincount(rows, minlength=len(ids)).astype(np.int64)
        n_uns = np.bincount(
            rows, weights=(~seen).astype(np.float64), minlength=len(ids)
        ).astype(np.int64)
        s_e6 = np.bincount(
            rows, weights=t_e6.astype(np.float64), minlength=len(ids)
        ).astype(np.int64)  # e6 ints << 2^53: float accumulation exact
        keep = n_big > 0
        return pa.table(
            {
                "doc_id": pa.array(ids[keep].astype(np.int64), pa.int64()),
                "n_bigrams": pa.array(n_big[keep], pa.int64()),
                "n_unseen_ctx": pa.array(n_uns[keep], pa.int64()),
                "kn_e6": pa.array(s_e6[keep], pa.int64()),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


SQL_KN_BIGRAM = rf"""
WITH l AS (
  SELECT doc_id,
         regexp_extract_all(regexp_replace(text, '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents
  WHERE regexp_replace(coalesce(text, ''), '^\s+|\s+$', '', 'g') <> ''),
bc AS (
  SELECT toks[i] AS a, toks[i+1] AS b, count(*) AS n
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)
  WHERE doc_id % 2 = 0
  GROUP BY 1, 2),
cv AS (
  SELECT a, sum(n) AS cv, count(*) AS n1f FROM bc GROUP BY a),
pw AS (
  SELECT b, count(*) AS n1p FROM bc GROUP BY b),
tot AS (
  SELECT (SELECT cast(count(*) AS DOUBLE) FROM bc) AS nbi,
         (SELECT cast(count(DISTINCT term) AS DOUBLE) + 1.0
          FROM (SELECT unnest(toks) AS term FROM l
                WHERE doc_id % 2 = 0)) AS vt),
sc AS (
  SELECT l.doc_id, toks[i] AS a, toks[i+1] AS b
  FROM l, unnest(generate_series(1, len(toks) - 1)) AS t(i)),
term AS (
  SELECT sc.doc_id,
         CASE WHEN cv.cv IS NULL THEN 1 ELSE 0 END AS unseen,
         CASE WHEN cv.cv IS NOT NULL THEN
                cast(round(ln((greatest(cast(coalesce(bc.n, 0) AS DOUBLE)
                                        - {_KN_D}, 0.0)
                               + {_KN_D} * cast(cv.n1f AS DOUBLE)
                                 * ((cast(coalesce(pw.n1p, 0) AS DOUBLE)
                                     + 1.0) / (tot.nbi + tot.vt)))
                              / cast(cv.cv AS DOUBLE)) * 1000000, 0)
                     AS BIGINT)
              ELSE
                cast(round(ln((cast(coalesce(pw.n1p, 0) AS DOUBLE) + 1.0)
                              / (tot.nbi + tot.vt)) * 1000000, 0)
                     AS BIGINT)
         END AS s_e6
  FROM sc
  LEFT JOIN bc ON bc.a = sc.a AND bc.b = sc.b
  LEFT JOIN cv ON cv.a = sc.a
  LEFT JOIN pw ON pw.b = sc.b
  CROSS JOIN tot)
SELECT doc_id,
       cast(count(*) AS BIGINT) AS n_bigrams,
       cast(sum(unseen) AS BIGINT) AS n_unseen_ctx,
       cast(sum(s_e6) AS BIGINT) AS kn_e6
FROM term GROUP BY doc_id
"""


QUERIES = {
    "rrf_fusion": q_rrf_fusion,
    "stupid_backoff": q_stupid_backoff,
    "skipgram_pairs": q_skipgram_pairs,
    "kn_bigram": q_kn_bigram,
}

ORACLE_SQL = {
    "rrf_fusion": _sql_rrf(SQL_BM25),
    "stupid_backoff": SQL_STUPID_BACKOFF,
    "skipgram_pairs": SQL_SKIPGRAM,
    "kn_bigram": SQL_KN_BIGRAM,
}

