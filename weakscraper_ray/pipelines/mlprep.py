"""Round-3 continuation #13: ML-prep family — the label/feature
hygiene passes that precede model training, each a ``queries()`` entry
with a DuckDB oracle:

- ``nb_classify``  held-out multinomial Naive Bayes (train on even
                   ``doc_id``, classify odd) releasing the confusion
                   matrix — the classifier-based curation filter
                   (fastText-style lang/quality gating), calibrated
                   sibling of the rule-based ``lang_id`` — contrast
                   ``lang_confusion`` (curation.py:1378), which scores
                   that fixed heuristic: this one TRAINS its model
                   from the held-out corpus half
- ``gini_stump``   histogram-based decision-stump split finding
                   (the LightGBM/XGBoost "histogram" idiom: 64 bins,
                   exact rational Gini comparison — no float argmax)
- ``edit1_join``   Levenshtein<=1 self-join via FastSS deletion
                   neighborhoods (Bocek et al. 2007) — candidate
                   generation is LOSSLESS, verification exact

Exactness strategy (repo conventions): every ln term e6-quantized
via ``_i64_away_np(…, 1e6)`` before integer summation (the
``stupid_backoff`` idiom, retrieval.py:190); Gini split candidates
compared by HUGEINT cross-multiplication on BOTH engines, never by a
float score; the edit-join name column is DERIVED deterministically
from ``doc_id`` (base-5 letter encoding + occasional truncation for
indel pairs) because the synthetic corpus has a 31-word vocabulary
with no natural typos — the derivation is mirrored verbatim in SQL,
same precedent as the derived citation graph (graph.py header).

Scale shapes: NB's model is the vocabulary×|langs| count grid —
trained with one bounded exchange, broadcast once via ``ray.put``,
scoring is a single streaming map (vectorized bincount per lang, no
per-token Python); the stump reduces the stream to 64×2 bin counts
before its only exchange; the edit join's blocking keys fan out
len+1 per name, buckets are bounded by the neighborhood structure.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray

from ..functions.exchange import by_shard
from .relational import _i64_away_np, _read
from .tokenizer import _WS

# ---------------------------------------------------------- NB traits

def _doc_token_runs(batch: pa.Table):
    """(ids, flat tokens, offsets) for per-doc vectorized scoring —
    whitespace tokenization identical to the SQL ``\\S+`` extract."""
    ids = batch.column("doc_id").to_numpy()
    toks = pc.split_pattern_regex(batch.column("text"), pattern=_WS)
    counts = pc.list_value_length(toks).fill_null(0).to_numpy(
        zero_copy_only=False
    )
    flat = pc.list_flatten(toks).to_numpy(zero_copy_only=False)
    keep = flat != ""
    doc_of = np.repeat(np.arange(len(ids)), counts)[keep]
    return ids, flat[keep], doc_of


def q_nb_classify(sf_dir: str):
    """Held-out multinomial Naive Bayes over document tokens
    predicting ``lang``: add-one likelihoods and document priors
    trained on the even-``doc_id`` half, odd half classified, output
    the (lang, pred_lang, n) confusion matrix.  Every log term is
    e6-quantized before the integer per-document sum, argmax ties
    break to the lexicographically smallest lang — both rules
    mirrored in SQL, so the entire classifier decision is hash-exact.

    Shape: ONE vocabulary×|langs|-bounded count exchange + one
    |langs|-bounded prior exchange train the model; the model matrix
    broadcasts once via ``ray.put``; scoring is a single streaming
    map (token→row lookup + one bincount per lang)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def _even_terms(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0))
        _, flat, doc_of = _doc_token_runs(t)
        lang = t.column("lang").to_numpy(zero_copy_only=False)[doc_of]
        df = pd.DataFrame({"lang": lang, "term": flat})
        g = df.groupby(["lang", "term"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "lang": pa.array(g["lang"]),
                "term": pa.array(g["term"]),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    def _even_docs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0))
        vc = pc.value_counts(t.column("lang").combine_chunks())
        return pa.table(
            {
                "lang": vc.field("values"),
                "nd": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    tc = (
        ds.map_batches(_even_terms, batch_format="pyarrow")
        .groupby(["lang", "term"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded: vocabulary x |langs|
    )
    pr = (
        ds.map_batches(_even_docs, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("nd", alias_name="nd"))
        .to_pandas()
        .sort_values("lang", kind="mergesort")
        .reset_index(drop=True)
    )
    langs = pr["lang"].to_numpy()
    nd = pr["nd"].to_numpy(np.int64)
    nd_tot = int(nd.sum())
    lang_ix = {l: j for j, l in enumerate(langs)}
    vocab = sorted(tc["term"].unique())
    vix = {t: i for i, t in enumerate(vocab)}
    v = len(vocab)
    nt = np.zeros(len(langs), dtype=np.int64)  # train tokens per lang
    cnt = np.zeros((v, len(langs)), dtype=np.int64)
    for lang, term, n in tc.itertuples(index=False):
        cnt[vix[term], lang_ix[lang]] = n
    nt = cnt.sum(axis=0)
    # logp[i, j] = qln6((cnt+1)/(N_j + V)); extra row v = unseen term
    full = np.vstack([cnt, np.zeros((1, len(langs)), dtype=np.int64)])
    logp = _i64_away_np(
        np.log((full + 1.0) / (nt.astype(np.float64) + v)), 1e6
    ).astype(np.int64)
    prior = _i64_away_np(np.log(nd / float(nd_tot)), 1e6).astype(np.int64)
    model_ref = ray.put((langs, vix, logp, prior))

    def _classify(t: pa.Table) -> pa.Table:
        langs, vix, logp, prior = ray.get(model_ref)
        t = t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 1))
        ids, flat, doc_of = _doc_token_runs(t)
        true_lang = t.column("lang").to_numpy(zero_copy_only=False)
        tix = (
            pd.Series(flat).map(vix).fillna(logp.shape[0] - 1).to_numpy(np.int64)
        )
        scores = np.tile(prior.astype(np.float64), (len(ids), 1))
        for j in range(len(langs)):
            # e6 ints << 2^53: float bincount accumulation is exact
            scores[:, j] += np.bincount(
                doc_of, weights=logp[tix, j].astype(np.float64),
                minlength=len(ids),
            )
        pred = langs[np.argmax(scores, axis=1)]  # first max = min lang
        df = (
            pd.DataFrame({"lang": true_lang, "pred_lang": pred})
            .groupby(["lang", "pred_lang"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "lang": pa.array(df["lang"]),
                "pred_lang": pa.array(df["pred_lang"]),
                "n": pa.array(df["n"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(_classify, batch_format="pyarrow")
        .groupby(["lang", "pred_lang"])
        .aggregate(Sum("n", alias_name="n"))
    )


SQL_NB_CLASSIFY = r"""
WITH l AS (
  SELECT doc_id, lang,
         regexp_extract_all(regexp_replace(coalesce(text, ''),
                                           '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents),
tr AS (SELECT lang, unnest(toks) AS term FROM l WHERE doc_id % 2 = 0),
tc AS (SELECT lang, term, cast(count(*) AS BIGINT) AS n
       FROM tr GROUP BY lang, term),
nl AS (SELECT lang, cast(count(*) AS BIGINT) AS nt FROM tr GROUP BY lang),
vv AS (SELECT cast(count(DISTINCT term) AS BIGINT) AS v FROM tr),
pr AS (SELECT lang, cast(count(*) AS BIGINT) AS nd
       FROM l WHERE doc_id % 2 = 0 GROUP BY lang),
pt AS (SELECT cast(count(*) AS BIGINT) AS nd FROM l WHERE doc_id % 2 = 0),
odd AS (SELECT doc_id, lang AS true_lang, toks FROM l WHERE doc_id % 2 = 1),
occ AS (SELECT doc_id, unnest(toks) AS term FROM odd),
term_s AS (
  SELECT occ.doc_id, nl.lang,
         cast(round(ln((cast(coalesce(tc.n, 0) AS DOUBLE) + 1.0)
                       / (cast(nl.nt AS DOUBLE) + vv.v)) * 1000000, 0)
              AS BIGINT) AS s_e6
  FROM occ CROSS JOIN nl CROSS JOIN vv
  LEFT JOIN tc ON tc.lang = nl.lang AND tc.term = occ.term),
dsum AS (SELECT doc_id, lang, cast(sum(s_e6) AS BIGINT) AS s
         FROM term_s GROUP BY doc_id, lang),
score AS (
  SELECT o.doc_id, o.true_lang, pr.lang,
         cast(round(ln(cast(pr.nd AS DOUBLE) / pt.nd) * 1000000, 0)
              AS BIGINT) + coalesce(dsum.s, 0) AS s
  FROM odd o CROSS JOIN pr CROSS JOIN pt
  LEFT JOIN dsum ON dsum.doc_id = o.doc_id AND dsum.lang = pr.lang),
pick AS (
  SELECT doc_id, true_lang, lang AS pred_lang,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY s DESC, lang) AS r
  FROM score)
SELECT true_lang AS lang, pred_lang, cast(count(*) AS BIGINT) AS n
FROM pick WHERE r = 1 GROUP BY true_lang, pred_lang
"""


# -------------------------------------------------------------- stump

_STUMP_BINS = 64


def q_gini_stump(sf_dir: str):
    """Histogram-based decision-stump training: best binary split of
    ``is_purchase`` on event value cents, candidates at the 63
    equal-width bin edges (the published histogram split-finding
    idiom — LightGBM/XGBoost 'hist').  The split objective
    maximizes SL²/nL + SR²/nR (equivalent to minimizing weighted
    Gini); candidates are compared by EXACT integer
    cross-multiplication (Python bigints here, HUGEINT in the
    mirror), ties to the smallest edge — no float argmax anywhere.

    Shape: one streaming pass reduces the stream to 64 (bin, pos,
    neg) partials; the candidate fold is a 63-row driver loop."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "events", ["event_type", "value"])

    def _cents(t: pa.Table) -> pa.Table:
        v = _i64_away_np(
            t.column("value").to_numpy(zero_copy_only=False), 100.0
        )
        y = (
            t.column("event_type").to_numpy(zero_copy_only=False)
            == "purchase"
        ).astype(np.int64)
        return pa.table({"v": pa.array(v), "y": pa.array(y)})

    cents = ds.map_batches(_cents, batch_format="pyarrow").materialize()
    bounds = cents.aggregate(Min("v"), Max("v"))
    vmin, vmax = int(bounds["min(v)"]), int(bounds["max(v)"])
    width = vmax - vmin + 1

    def _bin_counts(t: pa.Table, vmin=vmin, width=width) -> pa.Table:
        v = t.column("v").to_numpy()
        y = t.column("y").to_numpy()
        b = (v - vmin) * _STUMP_BINS // width
        pos = np.bincount(b, weights=y.astype(np.float64),
                          minlength=_STUMP_BINS).astype(np.int64)
        tot = np.bincount(b, minlength=_STUMP_BINS).astype(np.int64)
        return pa.table(
            {
                "bin": pa.array(np.arange(_STUMP_BINS, dtype=np.int64)),
                "pos": pa.array(pos),
                "neg": pa.array(tot - pos),
            }
        )

    g = (
        cents.map_batches(_bin_counts, batch_format="pyarrow")
        .groupby("bin")
        .aggregate(Sum("pos", alias_name="pos"), Sum("neg", alias_name="neg"))
        .to_pandas()  # bounded: 64 rows
        .sort_values("bin", kind="mergesort")
    )
    pos = np.zeros(_STUMP_BINS, dtype=np.int64)
    neg = np.zeros(_STUMP_BINS, dtype=np.int64)
    pos[g["bin"].to_numpy(np.int64)] = g["pos"].to_numpy(np.int64)
    neg[g["bin"].to_numpy(np.int64)] = g["neg"].to_numpy(np.int64)
    tp, tn = int(pos.sum()), int(neg.sum())
    cp, cn = np.cumsum(pos), np.cumsum(neg)

    best = None  # (num, den, k) under exact rational comparison
    for k in range(1, _STUMP_BINS):
        pl, ngl = int(cp[k - 1]), int(cn[k - 1])
        nl = pl + ngl
        pr_, ngr = tp - pl, tn - ngl
        nr = pr_ + ngr
        if nl == 0 or nr == 0:
            continue
        num = (pl * pl + ngl * ngl) * nr + (pr_ * pr_ + ngr * ngr) * nl
        den = nl * nr
        if best is None or num * best[1] > best[0] * den:
            best = (num, den, k, nl, nr, pl, pr_)
    num, den, k, nl, nr, pl, pr_ = best
    thr = vmin + (k * width + _STUMP_BINS - 1) // _STUMP_BINS
    return pa.table(
        {
            "split_bin": pa.array([k], pa.int64()),
            "thr_cents": pa.array([thr], pa.int64()),
            "n_left": pa.array([nl], pa.int64()),
            "n_right": pa.array([nr], pa.int64()),
            "pos_left": pa.array([pl], pa.int64()),
            "pos_right": pa.array([pr_], pa.int64()),
        }
    )


SQL_GINI_STUMP = f"""
WITH c AS (
  SELECT cast(round(value * 100, 0) AS BIGINT) AS v,
         CASE WHEN event_type = 'purchase' THEN 1 ELSE 0 END AS y
  FROM events),
b AS (SELECT min(v) AS vmin, max(v) AS vmax,
             max(v) - min(v) + 1 AS w FROM c),
g AS (SELECT ((v - vmin) * {_STUMP_BINS}) // w AS bin,
             cast(sum(y) AS BIGINT) AS pos,
             cast(count(*) - sum(y) AS BIGINT) AS neg
      FROM c, b GROUP BY bin),
tot AS (SELECT cast(sum(pos) AS BIGINT) AS tp,
               cast(sum(neg) AS BIGINT) AS tn FROM g),
cand AS (
  SELECT k.k,
         cast(coalesce(sum(g.pos) FILTER (WHERE g.bin < k.k), 0) AS BIGINT) AS pl,
         cast(coalesce(sum(g.neg) FILTER (WHERE g.bin < k.k), 0) AS BIGINT) AS ngl
  FROM range(1, {_STUMP_BINS}) k(k) LEFT JOIN g ON true
  GROUP BY k.k),
scored AS (
  SELECT k, pl, ngl,
         pl + ngl AS nl,
         (tot.tp - pl) AS pr, (tot.tn - ngl) AS ngr,
         (tot.tp - pl) + (tot.tn - ngl) AS nr,
         (cast(pl AS HUGEINT) * pl + cast(ngl AS HUGEINT) * ngl)
             * ((tot.tp - pl) + (tot.tn - ngl))
         + (cast(tot.tp - pl AS HUGEINT) * (tot.tp - pl)
            + cast(tot.tn - ngl AS HUGEINT) * (tot.tn - ngl))
             * (pl + ngl) AS num,
         cast(pl + ngl AS HUGEINT)
             * ((tot.tp - pl) + (tot.tn - ngl)) AS den
  FROM cand, tot
  WHERE pl + ngl > 0 AND (tot.tp - pl) + (tot.tn - ngl) > 0)
SELECT s1.k AS split_bin,
       (SELECT vmin + (s1.k * w + {_STUMP_BINS} - 1) // {_STUMP_BINS}
        FROM b) AS thr_cents,
       s1.nl AS n_left, s1.nr AS n_right,
       s1.pl AS pos_left, s1.pr AS pos_right
FROM scored s1
WHERE NOT EXISTS (
  SELECT 1 FROM scored s2
  WHERE s2.num * s1.den > s1.num * s2.den
     OR (s2.num * s1.den = s1.num * s2.den AND s2.k < s1.k))
"""


# ---------------------------------------------------------- edit join

#: derived-name parameters: 6 base-5 letters of a doc_id hash (a..e),
#: truncated to 5 when h % 7 == 0 so indel (not just substitution)
#: pairs occur; mirrored verbatim in SQL.
_E1_KNUTH = 2654435761
_E1_LEN = 6
_E1_ALPHA = 5


def _names_from_ids(ids: np.ndarray) -> np.ndarray:
    h = (ids.astype(np.int64) * _E1_KNUTH) % (_E1_ALPHA ** _E1_LEN)
    digits = np.empty((len(ids), _E1_LEN), dtype=np.int64)
    hh = h.copy()
    for i in range(_E1_LEN):
        digits[:, i] = hh % _E1_ALPHA
        hh //= _E1_ALPHA
    chars = (digits + 97).astype(np.uint8)
    names = chars.view(f"S{_E1_LEN}").ravel().astype(str)
    trunc = (h % 7) == 0
    out = names.astype(object)
    out[trunc] = [s[: _E1_LEN - 1] for s in names[trunc]]
    return out


def _edit1(a: str, b: str) -> bool:
    """exact Levenshtein == 1 for candidate pairs (|len diff| <= 1)."""
    la, lb = len(a), len(b)
    if la == lb:
        return sum(x != y for x, y in zip(a, b)) == 1
    if la > lb:
        a, b, la, lb = b, a, lb, la
    i = 0
    while i < la and a[i] == b[i]:
        i += 1
    return a[i:] == b[i + 1 :]


def q_edit1_join(sf_dir: str):
    """Levenshtein<=1 self-join over the derived username column via
    FastSS deletion-neighborhood blocking (Bocek et al. 2007): each
    distinct name keys itself plus its |name| single-deletion
    variants; any pair at edit distance 1 shares at least one key
    (substitution → the deletion at the differing position;
    indel → the shorter string itself), so candidate generation is
    LOSSLESS; pairs verify with an exact distance check and dedupe
    across buckets with one groupby-first.  Output (name_a, name_b),
    name_a < name_b.

    Shape: distinct-name reduction → (len+1)-fold key fan-out →
    ``by_shard`` exchange on the key, buckets iterated per shard
    (buckets bounded by the neighborhood
    structure: alphabet x length, not corpus size) → pair dedupe
    exchange.  The oracle cross-joins the bounded distinct-name set
    with ``levenshtein()`` — the engine never does.

    Contrast ``dedup_edit`` (indexing.py:203), which blocks on a
    shared 20-char PREFIX and so misses pairs whose edit falls inside
    the prefix: FastSS candidate generation is provably complete for
    d<=1 (pinned in tests/test_round3l.py) — recall-exact blocking vs
    a heuristic block."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["doc_id"])

    def _names(t: pa.Table) -> pa.Table:
        names = np.unique(
            _names_from_ids(t.column("doc_id").to_numpy()).astype(str)
        )
        return pa.table({"name": pa.array(names)})

    distinct = (
        ds.map_batches(_names, batch_format="pyarrow")
        .groupby("name")
        .count()
        .select_columns(["name"])
    )

    def _keys(t: pa.Table) -> pa.Table:
        ks, ns = [], []
        for name in t.column("name").to_pylist():
            ks.append(name)
            ns.append(name)
            for i in range(len(name)):
                ks.append(name[:i] + name[i + 1 :])
                ns.append(name)
        return pa.table({"key": pa.array(ks), "name": pa.array(ns)})

    def _bucket_pairs_shard(g: pd.DataFrame) -> pd.DataFrame:
        # one UDF call per SHARD: the per-bucket pairwise verify loop
        # is inherent (FastSS buckets are alphabet×length-bounded, a
        # few names each), but the thousands of per-bucket pandas/Ray
        # dispatches are not — iterate buckets in-process over the
        # sorted frame
        a_out, b_out = [], []
        d = g.sort_values(["key", "name"], kind="mergesort")
        for _, names_s in d.groupby("key", sort=False)["name"]:
            names = sorted(set(names_s))
            for i in range(len(names)):
                for j in range(i + 1, len(names)):
                    if _edit1(names[i], names[j]):
                        a_out.append(names[i])
                        b_out.append(names[j])
        return pd.DataFrame({"name_a": a_out, "name_b": b_out})

    pairs = by_shard(
        distinct.map_batches(_keys, batch_format="pyarrow"), "key",
        _bucket_pairs_shard,
        pa.schema([("name_a", pa.string()), ("name_b", pa.string())]),
    )
    # dedupe identical pairs found via multiple shared keys
    return (
        pairs.groupby(["name_a", "name_b"])
        .aggregate(Count(alias_name="_k"))
        .select_columns(["name_a", "name_b"])
    )


def _sql_name_expr() -> str:
    chars = " || ".join(
        f"chr(97 + cast((h // {_E1_ALPHA ** i}) % {_E1_ALPHA} AS INTEGER))"
        for i in range(_E1_LEN)
    )
    return f"""
WITH h0 AS (SELECT (doc_id * {_E1_KNUTH}) % {_E1_ALPHA ** _E1_LEN} AS h
            FROM documents),
nm0 AS (SELECT h, {chars} AS full_name FROM h0),
nm AS (SELECT DISTINCT CASE WHEN h % 7 = 0
                            THEN substr(full_name, 1, {_E1_LEN - 1})
                            ELSE full_name END AS name
       FROM nm0)
"""


SQL_EDIT1_JOIN = (
    _sql_name_expr()
    + """
SELECT a.name AS name_a, b.name AS name_b
FROM nm a JOIN nm b
  ON a.name < b.name AND levenshtein(a.name, b.name) = 1
"""
)




# ----------------------------------------------- NB-score evaluation

#: census memo — auc_nb and calibration_bins fold over the SAME
#: reduct; training the NB model twice per bench/driver run is pure
#: waste (process-local, deterministic input → deterministic census)
_NB_CENSUS_MEMO: dict[str, pd.DataFrame] = {}


def _nb_en_census(sf_dir: str) -> pd.DataFrame:
    """(s, n, n_pos) census of the held-out binary 'en'-vs-rest NB
    score over odd docs — the bounded reduct both evaluation
    operators (exact AUC, calibration bins) fold over.  Trains the
    same add-one model as ``nb_classify`` (same exchanges; the
    smoothing denominator uses the FULL train vocabulary), scores
    only the 'en' column, and reduces scores to a distinct-value
    census per batch, so the exchange is bounded by distinct score
    values, never by document count."""
    from ray.data.aggregate import Sum

    memo = _NB_CENSUS_MEMO.get(sf_dir)
    if memo is not None:
        return memo.copy()

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def _even_terms(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0))
        _, flat, doc_of = _doc_token_runs(t)
        lang = t.column("lang").to_numpy(zero_copy_only=False)[doc_of]
        df = pd.DataFrame({"lang": lang, "term": flat})
        g = df.groupby(["lang", "term"], sort=False).size().reset_index(name="n")
        return pa.table(
            {
                "lang": pa.array(g["lang"]),
                "term": pa.array(g["term"]),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    def _even_docs(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 0))
        vc = pc.value_counts(t.column("lang").combine_chunks())
        return pa.table(
            {
                "lang": vc.field("values"),
                "nd": pc.cast(vc.field("counts"), pa.int64()),
            }
        )

    tc = (
        ds.map_batches(_even_terms, batch_format="pyarrow")
        .groupby(["lang", "term"])
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()
    )
    # lang-prior counts: ≤#langs rows per batch — driver fold, no
    # keyed-exchange startup (fixed domain)
    pr = (
        ds.map_batches(_even_docs, batch_format="pyarrow")
        .to_pandas()
        .groupby("lang", sort=False)["nd"]
        .sum()
        .reset_index()
    )
    v = tc["term"].nunique()  # FULL train vocabulary, all langs
    en = tc[tc["lang"] == "en"]
    nt_en = int(en["n"].sum())
    logp_en = dict(
        zip(
            en["term"],
            _i64_away_np(
                np.log((en["n"].to_numpy(np.int64) + 1.0) / (nt_en + v)), 1e6
            ).astype(np.int64),
        )
    )
    unseen = int(_i64_away_np(np.log(np.array([1.0 / (nt_en + v)])), 1e6)[0])
    nd_en = int(pr.loc[pr["lang"] == "en", "nd"].iloc[0])
    nd_tot = int(pr["nd"].sum())
    prior = int(
        _i64_away_np(np.log(np.array([nd_en / nd_tot])), 1e6)[0]
    )
    model_ref = ray.put((logp_en, unseen, prior))

    def _score(t: pa.Table) -> pa.Table:
        logp_en, unseen, prior = ray.get(model_ref)
        t = t.filter(pc.equal(pc.bit_wise_and(t.column("doc_id"), 1), 1))
        ids, flat, doc_of = _doc_token_runs(t)
        term_s = (
            pd.Series(flat).map(logp_en).fillna(unseen).to_numpy(np.float64)
        )
        # e6 ints << 2^53: float bincount accumulation is exact
        s = prior + np.bincount(
            doc_of, weights=term_s, minlength=len(ids)
        ).astype(np.int64)
        is_en = (
            t.column("lang").to_numpy(zero_copy_only=False) == "en"
        ).astype(np.int64)
        df = (
            pd.DataFrame({"s": s, "pos": is_en})
            .groupby("s", sort=False)
            .agg(n=("pos", "size"), n_pos=("pos", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "s": pa.array(df["s"].to_numpy(np.int64)),
                "n": pa.array(df["n"].to_numpy(np.int64)),
                "n_pos": pa.array(df["n_pos"].to_numpy(np.int64)),
            }
        )

    # score census ends driver-side either way (the walk needs every
    # distinct score); fold the per-batch partials there directly
    out = (
        ds.map_batches(_score, batch_format="pyarrow")
        .to_pandas()  # bounded by distinct score values × batches
        .groupby("s", sort=True)[["n", "n_pos"]]
        .sum()
        .reset_index()
    )
    _NB_CENSUS_MEMO[sf_dir] = out
    return out.copy()


def q_auc_nb(sf_dir: str):
    """EXACT ROC AUC of the held-out 'en'-vs-rest NB score — the
    model-evaluation twin of ``mannwhitney_u`` (AUC == U/(PN)):
    midranks never materialize; they derive from the score census as
    2·midrank(s) = 2·below(s) + n(s) + 1, so
    2·ΣR_pos = Σ_s n_pos(s)·(2·below(s)+n(s)+1) is a pure integer
    fold over distinct score values.  Output (n_pos, n_neg,
    auc_num2 = 2ΣR_pos − P(P+1), auc_den2 = 2PN, auc_e6)."""
    cen = _nb_en_census(sf_dir)
    n = cen["n"].to_numpy(np.int64)
    npos = cen["n_pos"].to_numpy(np.int64)
    below = np.concatenate(([0], np.cumsum(n)[:-1]))
    two_rpos = int((npos * (2 * below + n + 1)).sum())
    p = int(npos.sum())
    q = int(n.sum()) - p
    num2 = two_rpos - p * (p + 1)
    den2 = 2 * p * q
    return pa.table(
        {
            "n_pos": pa.array([p], pa.int64()),
            "n_neg": pa.array([q], pa.int64()),
            "auc_num2": pa.array([num2], pa.int64()),
            "auc_den2": pa.array([den2], pa.int64()),
            "auc_e6": pa.array([(10**6 * num2) // den2], pa.int64()),
        }
    )


def q_calibration_bins(sf_dir: str):
    """Score-binned reliability table for the same held-out binary
    score: 10 equal-width bins over [smin, smax], each reporting
    (n, n_en) — the input of a reliability diagram / ECE.  Bin
    arithmetic is pure integer: bin = (s−smin)·10 // (smax−smin+1),
    mirrored verbatim.  Folds over the same bounded census."""
    cen = _nb_en_census(sf_dir)
    s = cen["s"].to_numpy(np.int64)
    n = cen["n"].to_numpy(np.int64)
    npos = cen["n_pos"].to_numpy(np.int64)
    smin, smax = int(s.min()), int(s.max())
    width = smax - smin + 1
    b = (s - smin) * 10 // width
    df = (
        pd.DataFrame({"bin": b, "n": n, "n_en": npos})
        .groupby("bin", sort=False)
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "bin": pa.array(df["bin"].to_numpy(np.int64)),
            "n": pa.array(df["n"].to_numpy(np.int64)),
            "n_en": pa.array(df["n_en"].to_numpy(np.int64)),
        }
    )


_SQL_NB_EN_SCORES = r"""
WITH l AS (
  SELECT doc_id, lang,
         regexp_extract_all(regexp_replace(coalesce(text, ''),
                                           '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents),
tr AS (SELECT lang, unnest(toks) AS term FROM l WHERE doc_id % 2 = 0),
vv AS (SELECT cast(count(DISTINCT term) AS BIGINT) AS v FROM tr),
tce AS (SELECT term, cast(count(*) AS BIGINT) AS n
        FROM tr WHERE lang = 'en' GROUP BY term),
nte AS (SELECT cast(coalesce(sum(n), 0) AS BIGINT) AS nt FROM tce),
pre AS (SELECT cast(count(*) AS BIGINT) AS nd
        FROM l WHERE doc_id % 2 = 0 AND lang = 'en'),
pt AS (SELECT cast(count(*) AS BIGINT) AS nd FROM l WHERE doc_id % 2 = 0),
odd AS (SELECT doc_id, lang, toks FROM l WHERE doc_id % 2 = 1),
occ AS (SELECT doc_id, unnest(toks) AS term FROM odd),
term_s AS (
  SELECT occ.doc_id,
         cast(round(ln((cast(coalesce(tce.n, 0) AS DOUBLE) + 1.0)
                       / (cast(nte.nt AS DOUBLE) + vv.v)) * 1000000, 0)
              AS BIGINT) AS s_e6
  FROM occ CROSS JOIN nte CROSS JOIN vv
  LEFT JOIN tce ON tce.term = occ.term),
dsum AS (SELECT doc_id, cast(sum(s_e6) AS BIGINT) AS s
         FROM term_s GROUP BY doc_id),
score AS (
  SELECT o.doc_id,
         CASE WHEN o.lang = 'en' THEN 1 ELSE 0 END AS pos,
         cast(round(ln(cast(pre.nd AS DOUBLE) / pt.nd) * 1000000, 0)
              AS BIGINT) + coalesce(dsum.s, 0) AS s
  FROM odd o CROSS JOIN pre CROSS JOIN pt
  LEFT JOIN dsum ON dsum.doc_id = o.doc_id)
"""

SQL_AUC_NB = _SQL_NB_EN_SCORES + """,
r AS (SELECT pos, s,
             rank() OVER (ORDER BY s) AS rk,
             count(*) OVER (PARTITION BY s) AS c
      FROM score),
agg AS (SELECT cast(sum(CASE WHEN pos = 1 THEN 2 * rk + c - 1 ELSE 0 END)
                    AS BIGINT) AS two_rpos,
               cast(sum(pos) AS BIGINT) AS p,
               cast(count(*) - sum(pos) AS BIGINT) AS q
        FROM r)
SELECT p AS n_pos, q AS n_neg,
       cast(two_rpos - p * (p + 1) AS BIGINT) AS auc_num2,
       cast(2 * p * q AS BIGINT) AS auc_den2,
       cast((1000000 * cast(two_rpos - p * (p + 1) AS HUGEINT))
            // (2 * cast(p AS HUGEINT) * q) AS BIGINT) AS auc_e6
FROM agg
"""

SQL_CALIBRATION = _SQL_NB_EN_SCORES + """,
b AS (SELECT min(s) AS smin, max(s) - min(s) + 1 AS w FROM score)
SELECT (s - smin) * 10 // w AS bin,
       cast(count(*) AS BIGINT) AS n,
       cast(sum(pos) AS BIGINT) AS n_en
FROM score, b GROUP BY bin
"""


def q_brier_score(sf_dir: str):
    """Brier score (Brier 1950) of the BINNED forecaster built from
    the same held-out NB score: each doc's forecast is its calibration
    bin's midpoint probability m_b = (2b+1)/2B (B = 10, the
    ``calibration_bins`` bin rule), so the score is a PURE-INTEGER
    fold over the bin census — no transcendental anywhere:

        4·B²·N·Brier = Σ_b [ n_pos_b·(2B−(2b+1))²
                             + (n_b−n_pos_b)·(2b+1)² ]

    (expand (m_b − y)² at y ∈ {0, 1} and scale by (2B)² = 400).
    Output: one row ``(n, brier_num, brier_den, brier_e6)`` with
    brier_den = 400·N and the shared half-away e6 division —
    hash-exact, zero extra passes (the memoized census is reused)."""
    cen = _nb_en_census(sf_dir)
    s = cen["s"].to_numpy(np.int64)
    n = cen["n"].to_numpy(np.int64)
    npos = cen["n_pos"].to_numpy(np.int64)
    smin, smax = int(s.min()), int(s.max())
    width = smax - smin + 1
    b = (s - smin) * 10 // width
    num = int(
        (npos * (20 - (2 * b + 1)) ** 2 + (n - npos) * (2 * b + 1) ** 2).sum()
    )
    nt = int(n.sum())
    den = 400 * nt
    return pa.table(
        {
            "n": pa.array([nt], pa.int64()),
            "brier_num": pa.array([num], pa.int64()),
            "brier_den": pa.array([den], pa.int64()),
            "brier_e6": pa.array(
                [(2_000_000 * num + den) // (2 * den)], pa.int64()
            ),
        }
    )


SQL_BRIER = _SQL_NB_EN_SCORES + """,
b AS (SELECT min(s) AS smin, max(s) - min(s) + 1 AS w FROM score),
bins AS (SELECT (s - smin) * 10 // w AS bin,
                cast(count(*) AS BIGINT) AS n,
                cast(sum(pos) AS BIGINT) AS n_pos
         FROM score, b GROUP BY bin),
agg AS (SELECT cast(sum(n_pos * (20 - (2 * bin + 1)) * (20 - (2 * bin + 1))
                    + (n - n_pos) * (2 * bin + 1) * (2 * bin + 1))
                    AS BIGINT) AS num,
               cast(sum(n) AS BIGINT) AS nt
        FROM bins)
SELECT nt AS n, num AS brier_num,
       cast(400 * nt AS BIGINT) AS brier_den,
       cast((2000000 * cast(num AS HUGEINT) + 400 * nt)
            // (2 * 400 * cast(nt AS HUGEINT)) AS BIGINT) AS brier_e6
FROM agg
"""


def q_chi2_terms(sf_dir: str):
    """χ² feature selection (Yang & Pedersen 1997): the 20 terms whose
    document-frequency 2×2 table is most dependent on lang = 'en'.
    Per term t: a = en docs containing t, ab = all docs containing t,
    and with the fixed doc totals (N, ne),
    χ²·e6 = half-away-e6 of N·(a·d − b·c)² / ((a+b)(c+d)(a+c)(b+d))
    — one exact integer division per term (Python bigints / HUGEINT;
    degenerate margins a+b = N excluded on both engines).  Ranked by
    (chi2_e6 DESC, term ASC).  Output: 20 rows ``(term, df_en,
    df_all, chi2_e6)``.

    Shape: per-batch DISTINCT (doc, term) presence partials → ONE
    vocabulary-bounded ``groupby(term)`` exchange (the nb_classify
    discipline) → per-block χ² + partial top-20 (bigint math on ≤
    vocab rows) → driver combine of ≤ 20-row partials."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "text"])

    def _totals(t: pa.Table) -> pa.Table:
        lang = t.column("lang").to_numpy(zero_copy_only=False)
        return pa.table(
            {
                "n": pa.array([t.num_rows], pa.int64()),
                "ne": pa.array([int((lang == "en").sum())], pa.int64()),
            }
        )

    n_docs = n_en = 0
    for t in ds.map_batches(_totals, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        n_docs += sum(t.column("n").to_pylist())
        n_en += sum(t.column("ne").to_pylist())

    def _presence(t: pa.Table) -> pa.Table:
        _, flat, doc_of = _doc_token_runs(t)
        en = (
            t.column("lang").to_numpy(zero_copy_only=False)[doc_of] == "en"
        ).astype(np.int64)
        df = (
            pd.DataFrame({"d": doc_of, "term": flat, "en": en})
            .drop_duplicates(["d", "term"])
            .groupby("term", sort=False)
            .agg(df_en=("en", "sum"), df_all=("en", "size"))
            .reset_index()
        )
        return pa.table(
            {
                "term": pa.array(df["term"]),
                "df_en": pa.array(df["df_en"].to_numpy(np.int64)),
                "df_all": pa.array(df["df_all"].to_numpy(np.int64)),
            }
        )

    counts = (
        ds.map_batches(_presence, batch_format="pyarrow")
        .groupby("term")
        .aggregate(
            Sum("df_en", alias_name="df_en"),
            Sum("df_all", alias_name="df_all"),
        )
    )

    def _chi2_topk(t: pa.Table, N=n_docs, NE=n_en) -> pa.Table:
        terms = t.column("term").to_pylist()
        a_arr = t.column("df_en").to_pylist()
        ab_arr = t.column("df_all").to_pylist()
        rows = []
        for term, a, ab in zip(terms, a_arr, ab_arr):
            if ab >= N:  # degenerate margin: term in every doc
                continue
            b = ab - a
            c = NE - a
            d = (N - NE) - b
            num = N * (a * d - b * c) ** 2
            den = ab * (N - ab) * NE * (N - NE)
            e6 = (2_000_000 * num + den) // (2 * den)
            rows.append((term, a, ab, e6))
        rows.sort(key=lambda r: (-r[3], r[0]))
        rows = rows[:20]
        return pa.table(
            {
                "term": pa.array([r[0] for r in rows], pa.string()),
                "df_en": pa.array([r[1] for r in rows], pa.int64()),
                "df_all": pa.array([r[2] for r in rows], pa.int64()),
                "chi2_e6": pa.array([r[3] for r in rows], pa.int64()),
            }
        )

    cand = []
    for t in counts.map_batches(
        _chi2_topk, batch_format="pyarrow"
    ).iter_batches(batch_format="pyarrow", batch_size=None):
        cand.extend(
            zip(
                t.column("term").to_pylist(),
                t.column("df_en").to_pylist(),
                t.column("df_all").to_pylist(),
                t.column("chi2_e6").to_pylist(),
            )
        )
    cand.sort(key=lambda r: (-r[3], r[0]))
    cand = cand[:20]
    return pa.table(
        {
            "term": pa.array([r[0] for r in cand], pa.string()),
            "df_en": pa.array([r[1] for r in cand], pa.int64()),
            "df_all": pa.array([r[2] for r in cand], pa.int64()),
            "chi2_e6": pa.array([r[3] for r in cand], pa.int64()),
        }
    )


SQL_CHI2_TERMS = r"""
WITH l AS (
  SELECT doc_id, lang,
         regexp_extract_all(regexp_replace(coalesce(text, ''),
                                           '^\s+|\s+$', '', 'g'),
                            '\S+') AS toks
  FROM documents),
pres AS (SELECT DISTINCT doc_id, lang, unnest(toks) AS term FROM l),
tot AS (SELECT cast(count(*) AS BIGINT) AS n,
               cast(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                    AS BIGINT) AS ne
        FROM l),
cnt AS (SELECT term,
               cast(sum(CASE WHEN lang = 'en' THEN 1 ELSE 0 END)
                    AS BIGINT) AS df_en,
               cast(count(*) AS BIGINT) AS df_all
        FROM pres GROUP BY term),
chi AS (
  SELECT term, df_en, df_all,
         cast((2000000 * (tot.n
                 * cast(df_en * (tot.n - tot.ne - (df_all - df_en))
                        - (df_all - df_en) * (tot.ne - df_en) AS HUGEINT)
                 * cast(df_en * (tot.n - tot.ne - (df_all - df_en))
                        - (df_all - df_en) * (tot.ne - df_en) AS HUGEINT))
               + (cast(df_all AS HUGEINT) * (tot.n - df_all)
                  * tot.ne * (tot.n - tot.ne)))
              // (2 * cast(df_all AS HUGEINT) * (tot.n - df_all)
                  * tot.ne * (tot.n - tot.ne)) AS BIGINT) AS chi2_e6
  FROM cnt, tot WHERE df_all < tot.n)
SELECT term, df_en, df_all, chi2_e6
FROM chi ORDER BY chi2_e6 DESC, term ASC LIMIT 20
"""


def q_avg_precision(sf_dir: str):
    """Average precision (the PR-curve area, step form — the ranking
    metric that, unlike AUC, ignores true negatives) of the held-out
    NB score: over distinct score thresholds DESCENDING,
    AP = Σ_t (ΔTP_t / P) · (TP_t / (TP_t + FP_t)).  Each term is one
    exact rational, quantized with the shared half-away e6 rule
    BEFORE the sum, so the total ``ap_q_e6`` is an order-independent
    integer (the ``chi2_independence`` per-term discipline).  Output:
    one row ``(n_pos, n_neg, n_thresholds, ap_q_e6)``.  Reuses the
    memoized score census — zero extra passes."""
    cen = _nb_en_census(sf_dir)  # ascending by s
    n = cen["n"].to_numpy(np.int64)[::-1]  # walk thresholds descending
    npos = cen["n_pos"].to_numpy(np.int64)[::-1]
    tp = np.cumsum(npos)
    tot = np.cumsum(n)
    p = int(npos.sum())
    q = int(n.sum()) - p
    total = 0
    for dtp, tpi, toti in zip(npos.tolist(), tp.tolist(), tot.tolist()):
        num = dtp * tpi
        den = p * toti
        total += (2_000_000 * num + den) // (2 * den)
    return pa.table(
        {
            "n_pos": pa.array([p], pa.int64()),
            "n_neg": pa.array([q], pa.int64()),
            "n_thresholds": pa.array([len(n)], pa.int64()),
            "ap_q_e6": pa.array([total], pa.int64()),
        }
    )


SQL_AVG_PRECISION = _SQL_NB_EN_SCORES + """,
cen AS (SELECT s, cast(count(*) AS BIGINT) AS n,
               cast(sum(pos) AS BIGINT) AS np
        FROM score GROUP BY s),
cum AS (SELECT s, np AS dtp,
               sum(np) OVER (ORDER BY s DESC) AS tp,
               sum(n) OVER (ORDER BY s DESC) AS tot
        FROM cen),
tots AS (SELECT cast(sum(np) AS BIGINT) AS p,
                cast(sum(n) - sum(np) AS BIGINT) AS q,
                cast(count(*) AS BIGINT) AS nt
         FROM cen)
SELECT tots.p AS n_pos, tots.q AS n_neg, tots.nt AS n_thresholds,
       cast(sum((2000000 * cast(cum.dtp AS HUGEINT) * cum.tp
                 + tots.p * cast(cum.tot AS HUGEINT))
                // (2 * tots.p * cast(cum.tot AS HUGEINT))) AS BIGINT)
         AS ap_q_e6
FROM cum, tots
GROUP BY tots.p, tots.q, tots.nt
"""


def q_best_f1(sf_dir: str):
    """Best-F1 operating point of the held-out NB score: over
    thresholds t (predict 'en' iff s ≥ t, one t per distinct score),
    maximize F1 = 2TP/(2TP + FP + FN).  Selection is EXACT: distinct
    F1 fractions here have denominators ≤ 2N, so they differ by
    ≥ 1/(2N)² ≫ 1e-12 and the half-away e12 quantization is
    collision-free — ordering by (f1_e12 DESC, threshold ASC) picks
    the same row on both engines with no float comparison.  Output:
    one row ``(thr_s, tp, fp, fn, f1_e12)``."""
    cen = _nb_en_census(sf_dir)
    s = cen["s"].to_numpy(np.int64)[::-1]
    n = cen["n"].to_numpy(np.int64)[::-1]
    npos = cen["n_pos"].to_numpy(np.int64)[::-1]
    tp = np.cumsum(npos)
    fp = np.cumsum(n - npos)
    p = int(npos.sum())
    fn = p - tp
    num = 2 * tp
    den = 2 * tp + fp + fn
    f1_e12 = (2 * 10**12 * num + den) // (2 * den)
    # best by (f1_e12 desc, threshold asc): lexsort on (-f1, s)
    order = np.lexsort((s, -f1_e12))
    i = order[0]
    return pa.table(
        {
            "thr_s": pa.array([int(s[i])], pa.int64()),
            "tp": pa.array([int(tp[i])], pa.int64()),
            "fp": pa.array([int(fp[i])], pa.int64()),
            "fn": pa.array([int(fn[i])], pa.int64()),
            "f1_e12": pa.array([int(f1_e12[i])], pa.int64()),
        }
    )


SQL_BEST_F1 = _SQL_NB_EN_SCORES + """,
cen AS (SELECT s, cast(count(*) AS BIGINT) AS n,
               cast(sum(pos) AS BIGINT) AS np
        FROM score GROUP BY s),
tots AS (SELECT cast(sum(np) AS BIGINT) AS p FROM cen),
cum AS (SELECT s,
               sum(np) OVER (ORDER BY s DESC) AS tp,
               sum(n - np) OVER (ORDER BY s DESC) AS fp
        FROM cen),
f AS (SELECT s AS thr_s, cast(tp AS BIGINT) AS tp,
             cast(fp AS BIGINT) AS fp,
             cast(tots.p - tp AS BIGINT) AS fn,
             cast((2000000000000 * cast(2 * tp AS HUGEINT)
                   + (2 * tp + fp + (tots.p - tp)))
                  // (2 * cast(2 * tp + fp + (tots.p - tp) AS HUGEINT))
                  AS BIGINT) AS f1_e12
      FROM cum, tots)
SELECT thr_s, tp, fp, fn, f1_e12
FROM f ORDER BY f1_e12 DESC, thr_s ASC LIMIT 1
"""


QUERIES = {
    "nb_classify": q_nb_classify,
    "gini_stump": q_gini_stump,
    "edit1_join": q_edit1_join,
    "auc_nb": q_auc_nb,
    "calibration_bins": q_calibration_bins,
    "brier_score": q_brier_score,
    "chi2_terms": q_chi2_terms,
    "avg_precision": q_avg_precision,
    "best_f1": q_best_f1,
}

ORACLE_SQL = {
    "nb_classify": SQL_NB_CLASSIFY,
    "gini_stump": SQL_GINI_STUMP,
    "edit1_join": SQL_EDIT1_JOIN,
    "auc_nb": SQL_AUC_NB,
    "calibration_bins": SQL_CALIBRATION,
    "brier_score": SQL_BRIER,
    "chi2_terms": SQL_CHI2_TERMS,
    "avg_precision": SQL_AVG_PRECISION,
    "best_f1": SQL_BEST_F1,
}
