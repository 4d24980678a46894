"""Round-3 continuation #13b: ranking-evaluation family — the metric
that closes the retrieval loop (``bm25_score`` → ``rrf_fusion`` →
*was the ranking any good?*), a ``queries()`` entry with a DuckDB
oracle:

- ``ndcg_bm25``  NDCG@10 + Precision@10 of the BM25 ranking
                 (Järvelin & Kekäläinen 2002), judged against a
                 deterministic graded relevance: rel(doc) =
                 min(3, tf of the corpus' single top-df term) — a
                 graded label the 3-term length-normalized BM25
                 score does NOT perfectly order (the corpus'
                 31-word vocabulary makes any presence-based grade
                 saturate at 3 for every document)

Exactness: the only irrational quantities are the 10 discount factors
1/log2(pos+1) — quantized ONCE as e9 integer literals (asserted
against libm at import, the ``sprt_test`` idiom), so DCG/IDCG are
pure integer dot products of (2^rel − 1) gains with the literal
table; NDCG is released as exact integer dcg/idcg plus a truncating
e6.

Shape: the score pass is the green ``bm25_score`` pipeline; the
top-10 cut is a distributed sort-limit; relevance is ONE streaming
map (3 broadcast terms) reduced to (a) the 10 retrieved rows and
(b) a 4-row rel census for IDCG — nothing else leaves the stream.
"""

from __future__ import annotations

import math

import numpy as np
import pyarrow as pa

from .indexing import SQL_BM25, q_bm25_score
from .relational import _read

_NDCG_K = 10
#: e9-quantized 1/log2(pos+1) for pos = 1..10 (round-half-away; all
#: values positive so round() == the repo rule)
_G9 = (
    1_000_000_000,
    630_929_754,
    500_000_000,
    430_676_558,
    386_852_807,
    356_207_187,
    333_333_333,
    315_464_877,
    301_029_996,
    289_064_826,
)
for _pos, _g in enumerate(_G9, start=1):
    assert _g == round(1e9 / math.log2(_pos + 1)), (_pos, _g)


def q_ndcg_bm25(sf_dir: str):
    """NDCG@10 / P@10 of the BM25 ranking (module docstring).  Output
    one row: (dcg_e9, idcg_e9, ndcg_e6, n_rel_at_10, p_at_10_e6)."""
    from ray.data.aggregate import Sum

    from .curation import _explode_tokens

    top = (
        q_bm25_score(sf_dir)
        .sort(["bm25_e6", "doc_id"], descending=[True, False])
        .limit(_NDCG_K)
        .to_pandas()
    )
    top_ids = top["doc_id"].to_numpy(np.int64)  # already in rank order

    # query terms: the corpus' top-3 df terms (df desc, term asc) —
    # the same deterministic query bm25_score scores against
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _df_partial(t: pa.Table) -> pa.Table:
        import pandas as pd

        rows, toks = _explode_tokens(t)
        df = (
            pd.DataFrame({"r": rows, "w": toks})
            .drop_duplicates()
            .groupby("w", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "w": pa.array(df["w"]),
                "n": pa.array(df["n"].to_numpy(np.int64)),
            }
        )

    dfs = (
        ds.map_batches(_df_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # vocabulary-bounded
        .sort_values(["n", "w"], ascending=[False, True], kind="mergesort")
    )
    term = str(dfs["w"].iloc[0])

    def _rel(t: pa.Table, term=term) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        rows, toks = _explode_tokens(t)
        hit = toks == term
        tf = np.bincount(rows[hit], minlength=len(ids)).astype(np.int64)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "rel": pa.array(np.minimum(tf, 3)),
            }
        )

    rels = ds.map_batches(_rel, batch_format="pyarrow").materialize()

    # (a) relevance of the retrieved 10, in rank order
    def _pick(t: pa.Table, top_ids=top_ids) -> pa.Table:
        m = np.isin(t.column("doc_id").to_numpy(), top_ids)
        return t.filter(pa.array(m))

    picked = rels.map_batches(_pick, batch_format="pyarrow").to_pandas()
    rel_of = dict(zip(picked["doc_id"], picked["rel"]))
    rel_ranked = np.array([rel_of[i] for i in top_ids], dtype=np.int64)

    # (b) global rel census for the ideal ranking
    census = (
        rels.map_batches(
            lambda t: t.select(["rel"]).group_by("rel").aggregate(
                [("rel", "count")]
            ).rename_columns(["rel", "n"]),
            batch_format="pyarrow",
        )
        .groupby("rel")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
        .sort_values("rel", ascending=False, kind="mergesort")
    )
    ideal = []
    for rel, n in census.itertuples(index=False):
        take = min(int(n), _NDCG_K - len(ideal))
        ideal.extend([int(rel)] * take)
        if len(ideal) >= _NDCG_K:
            break

    dcg = int(
        sum(((1 << int(r)) - 1) * g for r, g in zip(rel_ranked, _G9))
    )
    idcg = int(sum(((1 << r) - 1) * g for r, g in zip(ideal, _G9)))
    ndcg_e6 = 0 if idcg == 0 else (10**6 * dcg) // idcg
    hits = int((rel_ranked >= 1).sum())
    return pa.table(
        {
            "dcg_e9": pa.array([dcg], pa.int64()),
            "idcg_e9": pa.array([idcg], pa.int64()),
            "ndcg_e6": pa.array([ndcg_e6], pa.int64()),
            "n_rel_at_10": pa.array([hits], pa.int64()),
            "p_at_10_e6": pa.array([(10**6 * hits) // _NDCG_K], pa.int64()),
        }
    )


def _sql_ndcg(sql_bm25: str) -> str:
    g_rows = ", ".join(f"({i + 1}, {g})" for i, g in enumerate(_G9))
    return rf"""
WITH sc AS (SELECT * FROM ({sql_bm25})),
top10 AS (SELECT doc_id, pos FROM (
            SELECT doc_id,
                   row_number() OVER (ORDER BY bm25_e6 DESC, doc_id) AS pos
            FROM sc) WHERE pos <= {_NDCG_K}),
toks AS (SELECT doc_id,
                unnest(string_split_regex(lower(coalesce(text, '')),
                                          '\s+')) AS w
         FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
dfs AS (SELECT w, count(DISTINCT doc_id) AS df FROM t2 GROUP BY w),
qterm AS (SELECT w FROM dfs ORDER BY df DESC, w LIMIT 1),
rel AS (SELECT d.doc_id,
               cast(least(coalesce(r.tf, 0), 3) AS BIGINT) AS rel
        FROM documents d LEFT JOIN
             (SELECT doc_id, count(*) AS tf
              FROM t2 JOIN qterm USING (w) GROUP BY doc_id) r
             USING (doc_id)),
g AS (SELECT * FROM (VALUES {g_rows}) v(pos, g9)),
dcg AS (SELECT cast(sum(((1 << rel.rel) - 1) * g.g9) AS BIGINT) AS d
        FROM top10 JOIN rel USING (doc_id) JOIN g ON g.pos = top10.pos),
ideal AS (SELECT rel, row_number() OVER (ORDER BY rel DESC) AS pos
          FROM rel),
idcg AS (SELECT cast(sum(((1 << rel) - 1) * g.g9) AS BIGINT) AS d
         FROM ideal JOIN g ON g.pos = ideal.pos
         WHERE ideal.pos <= {_NDCG_K}),
hits AS (SELECT cast(sum(CASE WHEN rel.rel >= 1 THEN 1 ELSE 0 END)
                     AS BIGINT) AS h
         FROM top10 JOIN rel USING (doc_id))
SELECT dcg.d AS dcg_e9,
       idcg.d AS idcg_e9,
       CASE WHEN idcg.d = 0 THEN 0
            ELSE cast((1000000 * cast(dcg.d AS HUGEINT)) // idcg.d
                      AS BIGINT) END AS ndcg_e6,
       hits.h AS n_rel_at_10,
       cast((1000000 * hits.h) // {_NDCG_K} AS BIGINT) AS p_at_10_e6
FROM dcg, idcg, hits
"""


QUERIES = {
    "ndcg_bm25": q_ndcg_bm25,
}

ORACLE_SQL = {
    "ndcg_bm25": _sql_ndcg(SQL_BM25),
}
