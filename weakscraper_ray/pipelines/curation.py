"""Round-3 curation family: the per-document scrub/sample/diversity
operators a training-data pipeline runs between extraction and
packing — each a ``queries()`` entry with a DuckDB oracle twin.

- PII-style pattern scrub: vectorized regex redaction + per-row match
  counts (Arrow RE2 kernels; DuckDB's regexp functions are RE2 too, so
  one pattern string drives both sides of the oracle).
- Stratified sampling: exactly-k-per-group deterministic sample by
  content hash — per-batch partial top-k so the shuffle carries at
  most k rows per group per batch, never the corpus.
- Word diversity (type-token ratio): the MassiveText/Gopher
  "fraction of unique words" repetition filter, computed with one
  exploded-token hash-dedup per batch (C-level, no per-row Python).
- Incremental exact dedup (``dedup_against_index``): new documents
  against the corpus history as one digest-keyed anti-join exchange on
  stateless tasks — no index actors, nothing to rebuild on worker loss.

Scale notes: none of these shuffles payload text. ``pii_scrub`` is a
single streaming ``map_batches`` (no exchange at all);
``stratified_sample`` exchanges (lang, doc_id, hash) triples already
cut to k-per-group-per-batch; ``word_diversity`` is per-row local and
emits four scalars per document; ``dedup_against_index`` exchanges
(doc_id, md5 digest, parity) rows on the digest. Every keyed fold
whose key grows with the data (conversations, digests, grams, fps)
runs on ``functions.exchange.by_shard``: one UDF call per shard, never
per key.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import ray
import ray.data

from ..functions.exchange import by_shard
from . import relational as _rel
from .relational import _i64_away_np, _read

# =====================================================================
# PII-style pattern scrub (vectorized regex redaction + audit counts)
# =====================================================================

#: email-address OR integer-literal alternation. Both Arrow and DuckDB
#: compile this with RE2, so the oracle equivalence is engine-exact.
#: (The synthetic corpus has no emails — the alternation still shows
#: the real multi-pattern shape; the integer branch hits every row's
#: props JSON.)
_PII_PAT = r"[A-Za-z0-9._%+-]+@[A-Za-z0-9.-]+\.[A-Za-z]{2,}|\d+"


def q_pii_scrub(sf_dir: str):
    """Redact PII-shaped substrings from the events ``props`` JSON and
    count redactions per row — the audit-trail scrub every pretraining
    pipeline runs before packing. One streaming ``map_batches`` of
    pure Arrow RE2 kernels; no shuffle, no Python rows."""
    ds = _read(sf_dir, "events", ["event_id", "props"])

    def _scrub(batch: pa.Table) -> pa.Table:
        props = batch.column("props")
        return pa.table(
            {
                "event_id": batch.column("event_id"),
                "props_scrubbed": pc.replace_substring_regex(
                    props, pattern=_PII_PAT, replacement="<PII>"
                ),
                "n_redactions": pc.cast(
                    pc.count_substring_regex(props, pattern=_PII_PAT),
                    pa.int64(),
                ),
            }
        )

    return ds.map_batches(_scrub, batch_format="pyarrow")


SQL_PII_SCRUB = f"""
SELECT event_id,
       regexp_replace(props, '{_PII_PAT}', '<PII>', 'g') AS props_scrubbed,
       cast(len(regexp_extract_all(props, '{_PII_PAT}')) AS BIGINT)
           AS n_redactions
FROM events
"""


# =====================================================================
# Stratified sample: exactly k docs per lang, deterministic by md5
# =====================================================================

_STRAT_K = 5


def _md5_hex(ids) -> list[str]:
    # per-row md5 loop — same justified exception as q_sample_hash
    # (no cryptographic-hash Arrow kernel); runs on id strings only.
    return [hashlib.md5(str(d).encode()).hexdigest() for d in ids.to_pylist()]


def q_stratified_sample(sf_dir: str):
    """Deterministic stratified sample: the k docs with the smallest
    ``md5(doc_id)`` per language — no RNG, stable across runs/resumes,
    and exactly k per stratum (unlike a Bernoulli per-row sample).

    Shape: per-batch partial top-k per lang (a batch contributes at
    most k rows per lang to the exchange, and only (lang, doc_id,
    hash) triples — never text), then one small ``groupby(lang)``
    re-selection over the bounded partial set."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang"])

    def _partial(batch: pa.Table) -> pa.Table:
        df = batch.to_pandas()
        df["h"] = _md5_hex(batch.column("doc_id"))
        df = (
            df.sort_values(["lang", "h", "doc_id"], kind="mergesort")
            .groupby("lang", sort=False)
            .head(_STRAT_K)
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    def _final(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["h", "doc_id"], kind="mergesort").head(_STRAT_K)
        return g[["lang", "doc_id"]]

    partials = ds.map_batches(_partial, batch_format="pyarrow")
    return partials.groupby("lang").map_groups(_final, batch_format="pandas")


SQL_STRATIFIED = f"""
SELECT lang, doc_id FROM (
    SELECT lang, doc_id,
           row_number() OVER (
               PARTITION BY lang
               ORDER BY md5(cast(doc_id AS VARCHAR)), doc_id) AS rn
    FROM documents)
WHERE rn <= {_STRAT_K}
"""


# =====================================================================
# Word diversity (type-token ratio) — the Gopher repetition filter
# =====================================================================

def q_word_diversity(sf_dir: str):
    """Per-document word counts, distinct-word counts and type-token
    ratio (×1e6, half-away rounded like the DuckDB twin) — the
    "fraction of unique words" quality filter from the Gopher /
    MassiveText rules (public: Rae et al. 2021, §A.1.1).

    Vectorized: one Arrow lowercase+split per batch, then a single
    exploded (row, token) hash-dedup in pandas C code — no per-row
    Python loop. Local per document; no shuffle."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _stats(batch: pa.Table) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.utf8_lower(batch.column("text")), pattern=r"\s+"
        ).combine_chunks()
        lengths = pc.list_value_length(toks).to_numpy(zero_copy_only=False)
        rows = np.repeat(np.arange(len(toks)), lengths)
        flat = toks.flatten().to_numpy(zero_copy_only=False)
        mask = flat != ""  # mirror of SQL `WHERE w <> ''`
        df = pd.DataFrame({"row": rows[mask], "w": flat[mask]})
        n_words = df.groupby("row", sort=True).size()
        n_distinct = df.drop_duplicates().groupby("row", sort=True).size()
        idx = n_words.index.to_numpy()
        nw = n_words.to_numpy().astype("int64")
        nd = n_distinct.to_numpy().astype("int64")
        # expression order mirrors the SQL exactly: distinct*1e6/total
        ttr = nd.astype("float64") * 1_000_000.0 / nw
        doc_ids = batch.column("doc_id").to_numpy(zero_copy_only=False)[idx]
        return pa.table(
            {
                "doc_id": pa.array(doc_ids, pa.int64()),
                "n_words": pa.array(nw, pa.int64()),
                "n_distinct": pa.array(nd, pa.int64()),
                "ttr_e6": pa.array(_i64_away_np(ttr, 1.0), pa.int64()),
            }
        )

    return ds.map_batches(_stats, batch_format="pyarrow")


SQL_WORD_DIVERSITY = r"""
SELECT doc_id,
       cast(count(*) AS BIGINT)                        AS n_words,
       cast(count(DISTINCT w) AS BIGINT)               AS n_distinct,
       cast(round(cast(count(DISTINCT w) AS DOUBLE) * 1000000 / count(*),
                  0) AS BIGINT)                        AS ttr_e6
FROM (SELECT doc_id, unnest(string_split_regex(lower(text), '\s+')) AS w
      FROM documents)
WHERE w <> ''
GROUP BY doc_id
"""


# =====================================================================
# Mixture sampling: deterministic weighted source mix (data mixing)
# =====================================================================

#: acceptance threshold as 8 lowercase hex chars — md5 hex is uniform,
#: so P(md5[:8] < hex(w·2^32)) = w; lowercase-hex lexicographic order
#: IS numeric order, and DuckDB's md5() emits lowercase, so the same
#: string comparison runs on both sides with no float anywhere.
_MIX_ODD_THRESHOLD = "40000000"  # weight 0.25 for odd-numbered sources


def q_mixture_sample(sf_dir: str):
    """Deterministic weighted mixture sampling — the data-mixing step
    of a pretraining pipeline (down-weight some sources to hit a
    target mix). Demo policy: even-numbered sources keep weight 1.0,
    odd-numbered keep 0.25, decided per doc by an md5(doc_id) prefix
    compare (no RNG: stable across runs, resumes and repartitions —
    the same property sample_hash/split_assign rely on).

    Pure streaming filter, no shuffle; at scale the per-source weight
    table is a broadcast config dict. Integer/string comparisons only,
    so the oracle is exact."""
    ds = _read(sf_dir, "documents", ["doc_id", "source"])

    def _mix(batch: pa.Table) -> pa.Table:
        src_num = pc.cast(
            pc.utf8_slice_codeunits(batch.column("source"), 3, 32), pa.int64()
        )
        even = pc.equal(pc.bit_wise_and(src_num, 1), 0).combine_chunks()
        prefixes = np.array([h[:8] for h in _md5_hex(batch.column("doc_id"))])
        lucky = pa.array(prefixes < _MIX_ODD_THRESHOLD)
        return batch.filter(pc.or_(even, lucky)).select(["doc_id", "source"])

    return ds.map_batches(_mix, batch_format="pyarrow")


SQL_MIXTURE_SAMPLE = f"""
SELECT doc_id, source FROM documents
WHERE cast(substr(source, 4, 32) AS BIGINT) % 2 = 0
   OR substr(md5(cast(doc_id AS VARCHAR)), 1, 8) < '{_MIX_ODD_THRESHOLD}'
"""


# =====================================================================
# Incremental dedup against the corpus (digest-keyed anti-join)
# =====================================================================

def q_dedup_against_index(sf_dir: str, _chaos_hook=None):
    """Incremental dedup: drop every incoming document whose exact text
    already exists in the corpus history.

    Deterministic stand-in for "yesterday's corpus vs today's crawl":
    corpus = even doc_ids, incoming = odd doc_ids. One ``map_batches``
    emits (doc_id, md5 digest, parity) — hex digests only, never text;
    one ``by_shard`` exchange on the digest then keeps the odd rows
    whose digest is absent from the shard's even rows (a vectorized
    ``is_in`` per shard, the ``functions.dedup._anti_exchange``
    shape). The key is the digest
    string itself, so the answer is exact. Every stage is a stateless
    Ray Data task: worker loss is covered by task retries (lineage) and
    no index state exists to lose. ``_chaos_hook()`` is the
    fault-injection seam: it runs inside the per-shard UDF, in the
    worker. Emits ``doc_id`` only."""
    from ..functions.dedup import content_hash_batch

    def _key(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "digest": content_hash_batch(batch).column("content_hash"),
                "parity": pc.bit_wise_and(batch.column("doc_id"), 1),
            }
        )

    def _unseen(g: pa.Table) -> pa.Table:
        if _chaos_hook is not None:
            _chaos_hook()
        odd = pc.equal(g.column("parity"), 1)
        seen = g.filter(pc.invert(odd)).column("digest").combine_chunks()
        new = g.filter(odd)
        keep = pc.invert(pc.is_in(new.column("digest"), value_set=seen))
        return new.filter(keep)

    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return by_shard(
        ds.map_batches(_key, batch_format="pyarrow"), "digest", _unseen,
        pa.schema([("doc_id", pa.int64())]), batch_format="pyarrow",
    )


SQL_DEDUP_AGAINST_INDEX = """
SELECT doc_id FROM documents
WHERE doc_id % 2 = 1
  AND md5(coalesce(text, '')) NOT IN (
      SELECT md5(coalesce(text, '')) FROM documents WHERE doc_id % 2 = 0)
"""


# =====================================================================
# OOV rate: vocabulary-based quality filter (two-pass: build → score)
# =====================================================================

_OOV_VOCAB_K = 20


def _explode_tokens(batch: pa.Table) -> tuple[np.ndarray, np.ndarray]:
    """(row_index, token) arrays for a documents batch — one Arrow
    lower+split, empty tokens dropped (mirror of SQL ``w <> ''``)."""
    toks = pc.split_pattern_regex(
        pc.utf8_lower(batch.column("text")), pattern=r"\s+"
    ).combine_chunks()
    lengths = pc.fill_null(pc.list_value_length(toks), 0).to_numpy(
        zero_copy_only=False
    )  # NULL text → 0 tokens (== SQL coalesce(text, ''))
    rows = np.repeat(np.arange(len(toks)), lengths)
    flat = toks.flatten().to_numpy(zero_copy_only=False)
    mask = flat != ""
    return rows[mask], flat[mask]


def q_oov_rate(sf_dir: str):
    """Per-document out-of-vocabulary word counts against the corpus'
    own top-K vocabulary — the OOV/"dictionary word fraction" quality
    filter (C4/Gopher family). Integer outputs only, so the oracle is
    exact with no float-rounding mirror.

    Two passes, both scale-shaped:
    1. vocabulary: per-batch token ``value_counts`` partials → one
       ``groupby(word)`` exchange carrying (word, n) — the payload is
       the vocabulary, not the corpus (Heaps' law bound, same
       assumption as analytics.q_word_topk); the top-K cut
       (count desc, word asc — deterministic tie-break) runs on the
       bounded aggregated vocab and is broadcast via ``ray.put``;
    2. scoring: one streaming ``map_batches`` over documents testing
       exploded tokens against the broadcast set (C-level ``isin``).
    """
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _vocab_partial(batch: pa.Table) -> pa.Table:
        _, toks = _explode_tokens(batch)
        t = pa.table({"w": pa.array(toks, pa.string())})
        return t.group_by("w").aggregate([("w", "count")])

    vocab_tbl = (
        ds.map_batches(_vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("w_count", alias_name="n"))
        .sort(["n", "w"], descending=[True, False])
        .limit(_OOV_VOCAB_K)
        .take_all()  # K rows only — the bounded vocabulary cut
    )
    vocab_ref = ray.put(frozenset(r["w"] for r in vocab_tbl))

    def _score(batch: pa.Table) -> pa.Table:
        vocab = ray.get(vocab_ref)
        rows, toks = _explode_tokens(batch)
        oov = ~pd.Series(toks).isin(vocab).to_numpy()
        n_words = np.bincount(rows, minlength=len(batch))
        n_oov = np.bincount(rows[oov], minlength=len(batch))
        keep = n_words > 0  # docs with zero tokens drop (SQL GROUP BY)
        return pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().filter(
                    pa.array(keep)
                ),
                "n_words": pa.array(n_words[keep].astype("int64")),
                "n_oov": pa.array(n_oov[keep].astype("int64")),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


SQL_OOV_RATE = rf"""
WITH toks AS (
    SELECT doc_id, unnest(string_split_regex(lower(text), '\s+')) AS w
    FROM documents),
toks2 AS (SELECT * FROM toks WHERE w <> ''),
vocab AS (
    SELECT w FROM (
        SELECT w, count(*) AS n FROM toks2 GROUP BY w
        ORDER BY n DESC, w LIMIT {_OOV_VOCAB_K}))
SELECT doc_id,
       cast(count(*) AS BIGINT) AS n_words,
       cast(sum(CASE WHEN v.w IS NULL THEN 1 ELSE 0 END) AS BIGINT) AS n_oov
FROM toks2 t LEFT JOIN vocab v USING (w)
GROUP BY doc_id
"""


# =====================================================================
# Conversation packing: ordered per-conv concatenation (the "assemble
# turns into one training sequence" op; an ORDER-SENSITIVE aggregate)
# =====================================================================

def q_pack_conversations(sf_dir: str):
    """Concatenate each conversation's roles in turn order into one
    sequence string — the order-sensitive aggregate behind packing
    multi-turn transcripts into training examples (DuckDB twin:
    ``string_agg(... ORDER BY turn_idx)``).

    Shape: a ``by_shard`` exchange on conv_id, not a per-conv_id
    groupby (per-conversation groups are tiny and UDF overhead would
    dominate); each shard group gets ONE vectorized
    ``sort_by`` + a C-level pandas groupby-join. The exchange carries
    (conv_id, turn_idx, role) — no document text.

    Partitioning assumption (documented per SURVEY.md "custom
    operators"): a conversation must stay WHOLE for ordered packing,
    so it cannot split a hot conversation across reducers the way
    restore_order's range-partitioned sort does — the skew bound is
    the max-conversation-length assumption. A pathological conv would
    inflate one shard group; detect those with heavy_hitter_convs and
    route them to a dedicated partition."""
    import glob
    import os

    from ..transcripts import ensure_generated
    from .relational import _size_for

    shards_dir = ensure_generated(_size_for(sf_dir))
    paths = sorted(glob.glob(os.path.join(shards_dir, "part-*.parquet")))
    ds = ray.data.read_parquet(paths, columns=["conv_id", "turn_idx", "role"])

    def _pack(group: pa.Table) -> pa.Table:
        g = group.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        df = g.to_pandas()
        out = (
            df.groupby("conv_id", sort=False)
            .agg(role_seq=("role", " ".join), n_turns=("role", "size"))
            .reset_index()
        )
        return out

    return by_shard(
        ds, "conv_id", _pack,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("role_seq", pa.string()),
                ("n_turns", pa.int64()),
            ]
        ),
        batch_format="pyarrow",
    )


# =====================================================================
# Conversation-quality gating + dialog grammar validation
# =====================================================================

_CF_MIN_TURNS, _CF_MAX_TURNS = 3, 50


def _conv_role_stats(sf_dir: str):
    """(conv_id, n_turns, n_user, n_assistant, role_seq) — the shared
    per-conversation reduction behind the two gates below.  Same
    ``by_shard`` shape as pack_conversations: the exchange carries
    (conv_id, turn_idx, role), never text."""
    import glob
    import os

    from ..transcripts import ensure_generated
    from .relational import _size_for

    shards_dir = ensure_generated(_size_for(sf_dir))
    paths = sorted(glob.glob(os.path.join(shards_dir, "part-*.parquet")))
    ds = ray.data.read_parquet(paths, columns=["conv_id", "turn_idx", "role"])

    def _stats(group: pa.Table) -> pa.Table:
        g = group.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        ).to_pandas()
        role = g["role"]
        out = (
            g.assign(
                is_user=(role == "user").astype(np.int64),
                is_assistant=(role == "assistant").astype(np.int64),
            )
            .groupby("conv_id", sort=False)
            .agg(
                n_turns=("role", "size"),
                n_user=("is_user", "sum"),
                n_assistant=("is_assistant", "sum"),
                role_seq=("role", " ".join),
            )
            .reset_index()
        )
        return out

    return by_shard(
        ds, "conv_id", _stats,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("n_turns", pa.int64()),
                ("n_user", pa.int64()),
                ("n_assistant", pa.int64()),
                ("role_seq", pa.string()),
            ]
        ),
        batch_format="pyarrow",
    )


def q_conv_filter(sf_dir: str):
    """Conversation-quality gate: a transcript enters the training set
    only with ≥1 user turn, ≥1 assistant turn and a total turn count
    inside [3, 50] — the structural admission filter that runs before
    any text-level scoring.  Emits every conversation with its counts
    and the keep flag (downstream consumes ``keep = 1``)."""

    def _flag(t: pa.Table) -> pa.Table:
        nt = t.column("n_turns").to_numpy().astype(np.int64)
        nu = t.column("n_user").to_numpy().astype(np.int64)
        na = t.column("n_assistant").to_numpy().astype(np.int64)
        keep = (
            (nu >= 1)
            & (na >= 1)
            & (nt >= _CF_MIN_TURNS)
            & (nt <= _CF_MAX_TURNS)
        ).astype(np.int64)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "n_turns": pa.array(nt),
                "n_user": pa.array(nu),
                "n_assistant": pa.array(na),
                "keep": pa.array(keep),
            }
        )

    return _conv_role_stats(sf_dir).map_batches(_flag, batch_format="pyarrow")


def _sql_conv_filter(shards_glob: str) -> str:
    return f"""
WITH s AS (
  SELECT conv_id,
         cast(count(*) AS BIGINT) AS n_turns,
         cast(sum(CASE WHEN role = 'user' THEN 1 ELSE 0 END) AS BIGINT)
             AS n_user,
         cast(sum(CASE WHEN role = 'assistant' THEN 1 ELSE 0 END) AS BIGINT)
             AS n_assistant
  FROM read_parquet('{shards_glob}')
  GROUP BY conv_id)
SELECT conv_id, n_turns, n_user, n_assistant,
       cast(CASE WHEN n_user >= 1 AND n_assistant >= 1
                  AND n_turns BETWEEN {_CF_MIN_TURNS} AND {_CF_MAX_TURNS}
            THEN 1 ELSE 0 END AS BIGINT) AS keep
FROM s
"""


def q_dialog_grammar(sf_dir: str):
    """Dialog-grammar validation: flags per conversation for the three
    structural rules an SFT corpus usually enforces — opens with a
    user turn, never two consecutive user turns, closes with an
    assistant turn — plus the combined verdict.  The role-sequence
    string is built once per conversation (shard-keyed, no text) and
    each rule is a vectorized substring/prefix test mirrored by LIKE
    patterns (roles are whole space-joined tokens, so substring
    matches cannot straddle token boundaries)."""

    def _flag(t: pa.Table) -> pa.Table:
        seq = t.column("role_seq").to_pandas()
        starts = seq.str.startswith("user").to_numpy().astype(np.int64)
        double = seq.str.contains("user user", regex=False).to_numpy()
        ends = seq.str.endswith("assistant").to_numpy().astype(np.int64)
        ok = (starts.astype(bool) & ~double & ends.astype(bool)).astype(np.int64)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "starts_user": pa.array(starts),
                "no_double_user": pa.array((~double).astype(np.int64)),
                "ends_assistant": pa.array(ends),
                "ok": pa.array(ok),
            }
        )

    return _conv_role_stats(sf_dir).map_batches(_flag, batch_format="pyarrow")


def _sql_dialog_grammar(shards_glob: str) -> str:
    return f"""
WITH s AS (
  SELECT conv_id,
         string_agg(role, ' ' ORDER BY turn_idx) AS role_seq
  FROM read_parquet('{shards_glob}')
  GROUP BY conv_id),
f AS (
  SELECT conv_id,
         CASE WHEN role_seq LIKE 'user%' THEN 1 ELSE 0 END AS starts_user,
         CASE WHEN role_seq LIKE '%user user%' THEN 0 ELSE 1 END
             AS no_double_user,
         CASE WHEN role_seq LIKE '%assistant' THEN 1 ELSE 0 END
             AS ends_assistant
  FROM s)
SELECT conv_id,
       cast(starts_user AS BIGINT) AS starts_user,
       cast(no_double_user AS BIGINT) AS no_double_user,
       cast(ends_assistant AS BIGINT) AS ends_assistant,
       cast(starts_user * no_double_user * ends_assistant AS BIGINT) AS ok
FROM f
"""


# =====================================================================
# Unigram LM negative log-likelihood (CCNet-style perplexity filter)
# =====================================================================


def q_unigram_logprob(sf_dir: str):
    """Per-document mean negative log-likelihood under the corpus' own
    unigram language model — the perplexity-bucket quality filter of
    the CCNet pipeline (public: Wenzek et al. 2020), with the corpus
    itself as the LM (every token has count ≥ 1, so no smoothing and
    the oracle is exact).

    Shape: pass 1 builds the unigram table with per-batch
    ``value_counts`` partials → one vocabulary-bounded
    ``groupby(word)`` (Heaps' law — same bound as oov_rate), collected
    and broadcast once via ``ray.put``; pass 2 is one streaming
    ``map_batches``: token→count lookup via C-level ``Series.map``,
    per-doc sums via ``np.bincount(weights=...)``. Float expression
    mirrors the SQL op-for-op (``-ln(n/total)`` per token, then
    ``sum·1e6/count`` before the half-away round)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _vocab_partial(batch: pa.Table) -> pa.Table:
        _, toks = _explode_tokens(batch)
        t = pa.table({"w": pa.array(toks, pa.string())})
        return t.group_by("w").aggregate([("w", "count")])

    vocab = (
        ds.map_batches(_vocab_partial, batch_format="pyarrow")
        .groupby("w")
        .aggregate(Sum("w_count", alias_name="n"))
        .take_all()
    )  # vocabulary-bounded
    counts = {r["w"]: r["n"] for r in vocab}
    total = float(sum(counts.values()))
    model = ray.put((counts, total))

    def _score(batch: pa.Table) -> pa.Table:
        cnts, tot = ray.get(model)
        rows, toks = _explode_tokens(batch)
        n_tok = np.bincount(rows, minlength=len(batch))
        keep = n_tok > 0
        if len(toks):
            n_w = pd.Series(toks).map(cnts).to_numpy(dtype=np.float64)
            neg_ln = -np.log(n_w / tot)  # op-order mirror of the SQL
            nll = np.bincount(rows, weights=neg_ln, minlength=len(batch))
        else:
            nll = np.zeros(len(batch))
        return pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().filter(
                    pa.array(keep)
                ),
                "n_tokens": pa.array(n_tok[keep].astype("int64")),
                "nll_e6": pa.array(
                    _i64_away_np(
                        nll[keep] * 1_000_000.0 / n_tok[keep], 1.0
                    )
                ),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


SQL_UNIGRAM_LOGPROB = r"""
WITH toks AS (
    SELECT doc_id,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
cnt AS (SELECT w, count(*) AS n FROM t2 GROUP BY w),
tot AS (SELECT cast(count(*) AS DOUBLE) AS total FROM t2)
SELECT doc_id,
       cast(count(*) AS BIGINT) AS n_tokens,
       cast(round(sum(-ln(cast(n AS DOUBLE) / total)) * 1000000
                  / count(*), 0) AS BIGINT) AS nll_e6
FROM t2 JOIN cnt USING (w) CROSS JOIN tot
GROUP BY doc_id
"""


# =====================================================================
# Bigram-LM NLL quality score (the stronger CCNet-style signal)
# =====================================================================

def q_bigram_logprob(sf_dir: str):
    """Per-document mean negative log-likelihood under an add-1-
    smoothed corpus BIGRAM model — the next rung up from
    ``unigram_logprob`` toward CCNet's KenLM perplexity filter
    (public: Wenzek et al. 2020; smoothing per Jurafsky & Martin's
    Laplace form: P(w2|w1) = (c(w1 w2)+1)/(c(w1)+V)).

    Shape: TWO vocabulary-bounded count groupbys (unigrams; bigrams —
    at 100 TB the bigram string key becomes a 64-bit hash, same scale
    note as dup_ngram_fraction), both collected and broadcast once via
    ``ray.put``; scoring is one streaming ``map_batches`` with
    C-level ``Series.map`` lookups and per-doc ``np.bincount``
    weighted sums — no exchange. Docs with < 2 tokens carry no bigram
    and are excluded (mirrored by the SQL's inner grouping)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _bigrams(batch: pa.Table):
        rows, toks = _explode_tokens(batch)
        if len(toks) < 2:
            e = np.array([], dtype=np.int64)
            return e, np.array([], dtype=object), np.array([], dtype=object)
        valid = rows[:-1] == rows[1:]
        w1 = toks[:-1][valid].astype(object)
        bg = w1 + " " + toks[1:][valid].astype(object)
        return rows[:-1][valid], w1, bg

    def _uni_partial(batch: pa.Table) -> pa.Table:
        _, toks = _explode_tokens(batch)
        t = pa.table({"w": pa.array(toks, pa.string())})
        return t.group_by("w").aggregate([("w", "count")])

    def _bi_partial(batch: pa.Table) -> pa.Table:
        _, _, bg = _bigrams(batch)
        t = pa.table({"b": pa.array(bg, pa.string())})
        return t.group_by("b").aggregate([("b", "count")])

    uni = (
        ds.map_batches(_uni_partial, batch_format="pyarrow")
        .groupby("w").aggregate(Sum("w_count", alias_name="n")).take_all()
    )
    bi = (
        ds.map_batches(_bi_partial, batch_format="pyarrow")
        .groupby("b").aggregate(Sum("b_count", alias_name="n")).take_all()
    )
    cnt1 = {r["w"]: r["n"] for r in uni}
    cntb = {r["b"]: r["n"] for r in bi}
    v = float(len(cnt1))
    model = ray.put((cnt1, cntb, v))

    def _score(batch: pa.Table) -> pa.Table:
        c1, cb, vv = ray.get(model)
        rows, w1, bg = _bigrams(batch)
        n_bg = np.bincount(rows, minlength=len(batch))
        keep = n_bg > 0
        if len(bg):
            nb = pd.Series(bg).map(cb).to_numpy(dtype=np.float64)
            nu = pd.Series(w1).map(c1).to_numpy(dtype=np.float64)
            neg_ln = -np.log((nb + 1.0) / (nu + vv))  # op-order mirror
            nll = np.bincount(rows, weights=neg_ln, minlength=len(batch))
        else:
            nll = np.zeros(len(batch))
        return pa.table(
            {
                "doc_id": batch.column("doc_id").combine_chunks().filter(
                    pa.array(keep)
                ),
                "n_bigrams": pa.array(n_bg[keep].astype("int64")),
                "nll_e6": pa.array(
                    _i64_away_np(nll[keep] * 1_000_000.0 / n_bg[keep], 1.0)
                ),
            }
        )

    return ds.map_batches(_score, batch_format="pyarrow")


SQL_BIGRAM_LOGPROB = r"""
WITH d AS (
    SELECT doc_id,
           list_filter(string_split_regex(lower(coalesce(text, '')), '\s+'),
                       x -> x <> '') AS ws
    FROM documents),
bg AS (
    SELECT doc_id,
           unnest(list_transform(range(1, len(ws)), i -> ws[i])) AS w1,
           unnest(list_transform(range(1, len(ws)),
                                 i -> ws[i] || ' ' || ws[i+1])) AS b
    FROM d),
t2 AS (
    SELECT doc_id, unnest(ws) AS w FROM d),
cnt1 AS (SELECT w, count(*) AS nu FROM t2 GROUP BY w),
cntb AS (SELECT b, count(*) AS nb FROM bg GROUP BY b),
v AS (SELECT cast(count(*) AS DOUBLE) AS vv FROM cnt1)
SELECT bg.doc_id,
       cast(count(*) AS BIGINT) AS n_bigrams,
       cast(round(sum(-ln((cast(nb AS DOUBLE) + 1.0)
                          / (cast(nu AS DOUBLE) + vv))) * 1000000
                  / count(*), 0) AS BIGINT) AS nll_e6
FROM bg JOIN cntb USING (b) JOIN cnt1 ON bg.w1 = cnt1.w CROSS JOIN v
GROUP BY bg.doc_id
"""


# =====================================================================
# Token-budget packing: GLOBAL ordered prefix sum (distributed scan)
# =====================================================================

_PACK_BUDGET = 2000   # tokens per training pack
_PACK_RANGE = 64      # doc_ids per range shard (range partitioning)


def q_pack_budget(sf_dir: str):
    """Assign every document (in deterministic doc_id order) to a
    fixed token-budget pack: ``pack_id = (prefix_tokens - n) // B`` —
    the streaming "fill sequences up to the context budget" assignment
    of a pretraining data loader. Unlike ``running_sum`` (per-user
    cumsum inside one group) this is a GLOBAL ordered scan, built as
    the classic two-phase distributed prefix sum:

    1. range ``doc_id // _PACK_RANGE`` (range partitioning preserves
       the global order across ranges); per-range token totals → the
       driver reduces range_count numbers into prefix offsets (bounded
       by range count, not rows) → broadcast;
    2. a ``by_shard`` exchange on the range id; per-range local cumsum
       + offset, one vectorized pass per shard.

    Partitioning assumption (documented): range sharding by doc_id
    assumes roughly uniform id density; at scale use ntile-style range
    bounds from a quantile sketch instead. Integer-only, so the
    window-function oracle is exact."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _count(batch: pa.Table) -> pa.Table:
        rows, _ = _explode_tokens(batch)
        n = np.bincount(rows, minlength=len(batch)).astype("int64")
        rng = (
            batch.column("doc_id").to_numpy(zero_copy_only=False)
            // _PACK_RANGE
        )
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "rng": pa.array(rng, pa.int64()),
                "n_tokens": pa.array(n),
            }
        )

    counted = ds.map_batches(_count, batch_format="pyarrow")
    range_sums = (
        counted.select_columns(["rng", "n_tokens"])
        .groupby("rng")
        .aggregate(Sum("n_tokens", alias_name="tot"))
        .take_all()
    )  # range-count rows only
    offsets: dict[int, int] = {}
    acc = 0
    for r in sorted(range_sums, key=lambda r: r["rng"]):
        offsets[r["rng"]] = acc
        acc += r["tot"]
    offsets_ref = ray.put(offsets)

    def _assign(group: pd.DataFrame) -> pd.DataFrame:
        offs = ray.get(offsets_ref)
        g = group.sort_values("doc_id")
        cum = g["rng"].map(offs) + g.groupby("rng")["n_tokens"].cumsum()
        start = cum - g["n_tokens"]
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "n_tokens": g["n_tokens"].to_numpy(),
                "pack_id": (start // _PACK_BUDGET).to_numpy(),
            }
        )

    return by_shard(
        counted, "rng", _assign,
        pa.schema(
            [
                ("doc_id", pa.int64()),
                ("n_tokens", pa.int64()),
                ("pack_id", pa.int64()),
            ]
        ),
    )


SQL_PACK_BUDGET = rf"""
WITH toks AS (
    SELECT doc_id,
           unnest(string_split_regex(lower(coalesce(text, '')), '\s+')) AS w
    FROM documents),
t2 AS (SELECT * FROM toks WHERE w <> ''),
counts AS (
    SELECT d.doc_id, coalesce(c.n, 0) AS n
    FROM documents d LEFT JOIN
         (SELECT doc_id, count(*) AS n FROM t2 GROUP BY doc_id) c
         USING (doc_id))
SELECT doc_id,
       cast(n AS BIGINT) AS n_tokens,
       cast((sum(n) OVER (ORDER BY doc_id
                          ROWS UNBOUNDED PRECEDING) - n)
            // {_PACK_BUDGET} AS BIGINT) AS pack_id
FROM counts
"""


# =====================================================================
# Per-group rank normalization (score calibration before thresholding)
# =====================================================================


def q_rank_normalize(sf_dir: str):
    """Percent-rank of each document's length signal WITHIN its
    language — the calibration step before applying one global
    quality threshold across languages (raw score distributions
    differ per language; CCNet/fineweb pipelines bucket per-language
    for exactly this reason). Deterministic total order (signal, then
    doc_id) so ranks are tie-free and the oracle is exact.

    Shape: one ``groupby(lang)`` — group count = language count, each
    group ranked in a single vectorized pass. At web scale a single
    language exceeds one group's memory; swap to the distributed
    prefix-sum pattern (``pack_budget``) over per-language value
    shards — same math, two exchanges."""
    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])

    def _rank(group: pd.DataFrame) -> pd.DataFrame:
        g = group.sort_values(["n_chars", "doc_id"])
        n = len(g)
        pos = np.arange(n, dtype=np.float64)
        pct = pos * 1_000_000.0 / (n - 1) if n > 1 else np.zeros(1)
        return pd.DataFrame(
            {
                "doc_id": g["doc_id"].to_numpy(),
                "lang": g["lang"].to_numpy(),
                "pct_rank_e6": _i64_away_np(pct, 1.0),
            }
        )

    return ds.groupby("lang").map_groups(_rank, batch_format="pandas")


SQL_RANK_NORMALIZE = """
SELECT doc_id, lang,
       CASE WHEN count(*) OVER (PARTITION BY lang) = 1 THEN 0
            ELSE cast(round((cast(row_number() OVER w AS DOUBLE) - 1)
                            * 1000000
                            / (count(*) OVER (PARTITION BY lang) - 1), 0)
                      AS BIGINT)
       END AS pct_rank_e6
FROM documents
WINDOW w AS (PARTITION BY lang ORDER BY n_chars, doc_id)
"""


# =====================================================================
# Text normalization: the canonical-form pass before exact dedup
# =====================================================================


def q_text_normalize(sf_dir: str):
    """Canonicalize document text — lowercase, collapse all runs of
    whitespace to single spaces, trim — and fingerprint the result.
    This is the pass that makes exact dedup catch case/spacing
    variants; ``changed`` audits how much the corpus needed it.

    Map-only streaming query, no exchange. Arrow's ``utf8_lower`` and
    DuckDB's ``lower()`` are both utf8proc/ICU simple case-folding and
    agree on this corpus; ``\\s+`` is RE2 on both sides (same
    convention as ``pii_scrub``). The md5 is per-row Python —
    like ``q_fingerprint``, no Arrow kernel exists for md5 in this
    pyarrow; acceptable because the digest input is the already-
    normalized short string, not the hot extract path."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _norm(t: pa.Table) -> pa.Table:
        low = pc.utf8_lower(t.column("text"))
        coll = pc.replace_substring_regex(low, pattern=r"\s+", replacement=" ")
        norm = pc.utf8_trim(coll, characters=" ")
        changed = pc.cast(pc.not_equal(norm, t.column("text")), pa.int64())
        fp = pa.array(
            [hashlib.md5(s.encode()).hexdigest() for s in norm.to_pylist()],
            pa.string(),
        )
        return pa.table(
            {
                "doc_id": t.column("doc_id"),
                "norm_text": norm,
                "n_chars_norm": pc.cast(pc.utf8_length(norm), pa.int64()),
                "changed": changed,
                "fp": fp,
            }
        )

    return ds.map_batches(_norm, batch_format="pyarrow")


SQL_TEXT_NORMALIZE = r"""
WITH n AS (
  SELECT doc_id,
         trim(regexp_replace(lower(text), '\s+', ' ', 'g'), ' ') AS norm_text,
         text
  FROM documents
)
SELECT doc_id, norm_text,
       cast(length(norm_text) AS BIGINT) AS n_chars_norm,
       cast(CASE WHEN norm_text <> text THEN 1 ELSE 0 END AS BIGINT) AS changed,
       md5(norm_text) AS fp
FROM n
"""


# =====================================================================
# Global-quantile quality gate (compute threshold, then filter)
# =====================================================================


def q_quality_filter_global(sf_dir: str):
    """Drop the shortest quartile of the corpus: compute the exact
    global P25 of ``n_chars`` distributedly, broadcast the threshold,
    keep docs at or above it — the chained compute-threshold→filter
    shape every score-based quality gate uses (the score here is the
    already-materialized length signal; swap in any scored column).

    Shape: per-batch value-count partials → one ``groupby(value)``
    whose payload is the VALUE DOMAIN (distinct lengths), not the
    corpus; the tiny (value, count) table comes to the driver, a
    cumsum picks the type-1 discrete quantile (DuckDB
    ``quantile_disc``: smallest v with cum-count ≥ ceil(q·n)); the
    filter pass streams with no exchange. For a continuous score,
    quantize to a fixed grid first (the ``ks_drift`` note) — the
    domain bound is what keeps the exchange small."""
    from ray.data.aggregate import Count

    ds = _read(sf_dir, "documents", ["doc_id", "lang", "n_chars"])
    counts = ds.groupby("n_chars").aggregate(Count()).take_all()
    counts.sort(key=lambda r: r["n_chars"])
    total = sum(r["count()"] for r in counts)
    need = -(-total // 4)  # ceil(0.25 * n): type-1 discrete quantile rank
    cum = 0
    thr = counts[-1]["n_chars"]
    for r in counts:
        cum += r["count()"]
        if cum >= need:
            thr = int(r["n_chars"])
            break

    def _gate(t: pa.Table) -> pa.Table:
        keep = pc.greater_equal(t.column("n_chars"), thr)
        out = t.filter(keep)
        return out.append_column(
            "threshold", pa.array(np.full(out.num_rows, thr, dtype=np.int64))
        )

    return ds.map_batches(_gate, batch_format="pyarrow")


SQL_QUALITY_FILTER_GLOBAL = """
WITH thr AS (SELECT quantile_disc(n_chars, 0.25) AS v FROM documents)
SELECT d.doc_id, d.lang, d.n_chars, cast(t.v AS BIGINT) AS threshold
FROM documents d, thr t
WHERE d.n_chars >= t.v
"""


# =====================================================================
# Weighted sampling without replacement (Efraimidis–Spirakis A-Res)
# =====================================================================

_WSAMPLE_K = 100


def q_weighted_sample(sf_dir: str):
    """Deterministic weighted sample WITHOUT replacement: the
    Efraimidis–Spirakis A-Res scheme (public, 2006) — each doc gets
    key = ln(u)/w with u uniform in (0,1] and w its weight (length
    here); the k largest keys are a weight-proportional sample. The
    uniform is hash-derived (md5(doc_id) first 8 hex → (h+1)/2³²),
    so the sample is reproducible and the DuckDB twin computes the
    IDENTICAL doubles — selection is float-ORDER-sensitive but both
    engines evaluate the same expression tree (the unigram_logprob
    precedent: numpy log ≡ DuckDB ln bit-for-bit on this data).

    Shape: per-batch partial top-k (the exchange carries ≤ k
    candidate rows per batch, never the corpus) → one global
    ``sort().limit(k)`` over candidates. Output is integers only;
    floats exist only as ordering keys."""
    ds = _read(sf_dir, "documents", ["doc_id", "n_chars"])

    def _keys(t: pa.Table) -> pa.Table:
        ids = t.column("doc_id").to_numpy()
        w = t.column("n_chars").to_numpy()
        keep = w > 0
        ids, w = ids[keep], w[keep]
        h = np.array(
            [int(hashlib.md5(str(i).encode()).hexdigest()[:8], 16) for i in ids],
            dtype=np.float64,
        )  # per-row md5: same justification as q_fingerprint
        key = np.log((h + 1.0) / 4294967296.0) / w
        df = pd.DataFrame({"doc_id": ids, "n_chars": w, "key": key})
        df = df.sort_values(["key", "doc_id"], ascending=[False, True]).head(
            _WSAMPLE_K
        )
        return pa.Table.from_pandas(df, preserve_index=False)

    cands = ds.map_batches(_keys, batch_format="pyarrow")
    top = cands.sort(["key", "doc_id"], descending=[True, False]).limit(_WSAMPLE_K)
    return top.map_batches(
        lambda t: t.select(["doc_id", "n_chars"]), batch_format="pyarrow"
    )


SQL_WEIGHTED_SAMPLE = f"""
WITH k AS (
  SELECT doc_id, n_chars,
         ln((('0x' || substr(md5(cast(doc_id AS VARCHAR)), 1, 8))::UBIGINT + 1)
            / 4294967296.0) / n_chars AS key
  FROM documents WHERE n_chars > 0
)
SELECT doc_id, n_chars FROM k ORDER BY key DESC, doc_id LIMIT {_WSAMPLE_K}
"""


# =====================================================================
# Chat-format QA: do conversation roles strictly alternate?
# =====================================================================


def q_turn_alternation(sf_dir: str):
    """Per-conversation chat-format check: count adjacent turn pairs
    with the SAME role (a merged/dropped-turn symptom) and flag convs
    that alternate cleanly — the structural QA gate chat training
    data goes through before packing.

    Shape: identical exchange to ``pack_conversations`` (``by_shard``
    on conv_id, conversations stay whole, no text payload); inside a
    shard group, one vectorized ``sort_by`` then shifted-array
    compares with a conv-boundary mask — no per-row Python, no
    per-conv UDF calls."""
    import glob
    import os

    from ..transcripts import ensure_generated
    from .relational import _size_for

    shards_dir = ensure_generated(_size_for(sf_dir))
    paths = sorted(glob.glob(os.path.join(shards_dir, "part-*.parquet")))
    ds = ray.data.read_parquet(paths, columns=["conv_id", "turn_idx", "role"])

    def _alt(group: pa.Table) -> pa.Table:
        g = group.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
        conv = g.column("conv_id").to_numpy(zero_copy_only=False)
        role = g.column("role").to_numpy(zero_copy_only=False)
        viol = np.zeros(len(conv), dtype=np.int64)
        viol[1:] = (conv[1:] == conv[:-1]) & (role[1:] == role[:-1])
        df = pd.DataFrame({"conv_id": conv, "viol": viol})
        out = (
            df.groupby("conv_id", sort=False)
            .agg(n_turns=("viol", "size"), violations=("viol", "sum"))
            .reset_index()
        )
        out["alternating"] = (out["violations"] == 0).astype("int64")
        return out

    return by_shard(
        ds, "conv_id", _alt,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("n_turns", pa.int64()),
                ("violations", pa.int64()),
                ("alternating", pa.int64()),
            ]
        ),
        batch_format="pyarrow",
    )


# =====================================================================
# Per-turn context assembly: sliding window over conversation turns
# =====================================================================

_CTX_PREV = 2    # turns of preceding context
_CTX_CHARS = 80  # per-turn text budget in the assembled context


def q_context_windows(sf_dir: str):
    """For every turn, assemble its training context: the previous
    ``_CTX_PREV`` turns' (truncated) texts plus its own, in turn
    order — the sliding-window context-construction op of a
    conversational fine-tuning pipeline. Window truncates at the
    conversation start (mirror of ``ROWS N PRECEDING``).

    Shape: the pack_conversations pattern — ``by_shard`` on conv_id
    (conversations stay whole; per-conv groups are too small for
    per-group UDFs), one vectorized sort per shard, then the window
    built from SHIFTED numpy arrays with conv-boundary masks (no
    per-row Python). The exchange carries 80-char truncated texts,
    not full turn payloads."""
    import glob
    import os

    from ..transcripts import ensure_generated
    from .relational import _size_for

    shards_dir = ensure_generated(_size_for(sf_dir))
    paths = sorted(glob.glob(os.path.join(shards_dir, "part-*.parquet")))
    ds = ray.data.read_parquet(paths, columns=["conv_id", "turn_idx", "text"])

    def _truncate(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": batch.column("conv_id"),
                "turn_idx": batch.column("turn_idx"),
                "t80": pc.utf8_slice_codeunits(
                    batch.column("text"), 0, _CTX_CHARS
                ),
            }
        )

    def _window(group: pa.Table) -> pa.Table:
        g = group.sort_by(
            [("conv_id", "ascending"), ("turn_idx", "ascending")]
        )
        conv = g.column("conv_id").to_numpy(zero_copy_only=False)
        t = g.column("t80").to_numpy(zero_copy_only=False).astype(object)
        ctx = t.copy()
        for back in range(1, _CTX_PREV + 1):
            same = np.empty(len(t), dtype=bool)
            same[:back] = False
            same[back:] = conv[back:] == conv[:-back]
            prev = np.empty(len(t), dtype=object)
            prev[:back] = ""  # np.where evaluates the concat eagerly
            prev[back:] = t[:-back]
            ctx = np.where(same, prev + " | " + ctx, ctx)
        return pa.table(
            {
                "conv_id": g.column("conv_id"),
                "turn_idx": g.column("turn_idx"),
                "ctx": pa.array(ctx, pa.string()),
            }
        )

    return by_shard(
        ds.map_batches(_truncate, batch_format="pyarrow"), "conv_id", _window,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("turn_idx", pa.int32()),
                ("ctx", pa.string()),
            ]
        ),
        batch_format="pyarrow",
    )


def q_textrank_terms(sf_dir: str):
    """TextRank keyword extraction (Mihalcea & Tarau 2004): per
    document, damped PageRank over the UNDIRECTED deduped
    adjacent-token co-occurrence graph, top-3 terms by
    (score DESC, term ASC).  Integer-exact iteration (the q_pagerank
    discipline): scores carry MASS = 10¹², teleport 15·MASS//(100·n),
    each neighbour contribution (85·r_j)//(100·deg_j) floor-divided
    PER TERM, 10 fixed iterations — so the ranking is deterministic
    under any partitioning and the expected twin
    (oracles.textrank_twin: plain dict loops, no numpy) must agree
    bit-for-bit.  Output: (doc_id, rank, term, score_e12).

    Shape: map-only — every document is independent, so this is one
    streaming ``map_batches`` with a per-doc loop (inherent, like
    chunk_documents); inside a doc the iteration is numpy index-array
    adds over the edge list.  Zero exchange at any corpus size."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _per_doc(doc_id: int, toks: list):
        nodes = sorted(set(toks))
        index = {w: i for i, w in enumerate(nodes)}
        n = len(nodes)
        seq = np.fromiter((index[w] for w in toks), np.int64, len(toks))
        pairs = np.unique(
            np.sort(
                np.stack([seq[:-1], seq[1:]], axis=1), axis=1
            ),
            axis=0,
        )
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        src = np.concatenate([pairs[:, 0], pairs[:, 1]])
        dst = np.concatenate([pairs[:, 1], pairs[:, 0]])
        deg = np.bincount(src, minlength=n).astype(np.int64)
        mass = 10**12
        tele = (15 * mass) // (100 * n)
        r = np.full(n, mass // n, dtype=np.int64)
        for _ in range(10):
            contrib = (85 * r[src]) // (100 * deg[src])
            nr = np.full(n, tele, dtype=np.int64)
            np.add.at(nr, dst, contrib)
            r = nr
        order = np.lexsort((np.array(nodes), -r))[:3]
        return [(doc_id, rk + 1, nodes[i], int(r[i]))
                for rk, i in enumerate(order)]

    def _batch(t: pa.Table) -> pa.Table:
        rows, flat = _explode_tokens(t)
        ids = t.column("doc_id").to_numpy(zero_copy_only=False)
        out = []
        for ri in range(len(ids)):
            toks = flat[rows == ri]
            if len(toks) == 0:
                continue
            out.extend(_per_doc(int(ids[ri]), list(toks)))
        return pa.table(
            {
                "doc_id": pa.array([o[0] for o in out], pa.int64()),
                "rank": pa.array([o[1] for o in out], pa.int64()),
                "term": pa.array([o[2] for o in out], pa.string()),
                "score_e12": pa.array([o[3] for o in out], pa.int64()),
            }
        )

    return ds.map_batches(_batch, batch_format="pyarrow")


def dynamic_oracle_sql(sf_dir: str) -> dict[str, str]:
    """Twins whose SQL embeds a generated-data path (same pattern as
    analytics.dynamic_oracle_sql; merged by registry.oracle_sql)."""
    from ..transcripts import ensure_generated
    from .relational import _size_for

    shards_glob = f"{ensure_generated(_size_for(sf_dir))}/part-*.parquet"
    from .. import oracles

    return {
        "textrank_terms": (
            "SELECT doc_id, rank, term, score_e12 "
            f"FROM read_parquet('{oracles.textrank_twin(sf_dir)}')"
        ),
        "lang_confusion": _sql_lang_confusion(),
        "dedup_conv_structure": _sql_dedup_conv_structure(shards_glob),
        "qa_pairs": _sql_qa_pairs(shards_glob),
        "tool_usage": _sql_tool_usage(shards_glob),
        "conv_filter": _sql_conv_filter(shards_glob),
        "dialog_grammar": _sql_dialog_grammar(shards_glob),
        "pack_conversations": f"""
SELECT conv_id,
       string_agg(role, ' ' ORDER BY turn_idx) AS role_seq,
       cast(count(*) AS BIGINT) AS n_turns
FROM read_parquet('{shards_glob}')
GROUP BY conv_id
""",
        "context_windows": f"""
SELECT conv_id, turn_idx,
       string_agg(substr(text, 1, {_CTX_CHARS}), ' | ')
           OVER (PARTITION BY conv_id ORDER BY turn_idx
                 ROWS BETWEEN {_CTX_PREV} PRECEDING AND CURRENT ROW)
           AS ctx
FROM read_parquet('{shards_glob}')
""",
        "turn_alternation": f"""
WITH t AS (
  SELECT conv_id,
         CASE WHEN lag(role) OVER (PARTITION BY conv_id ORDER BY turn_idx)
                   = role
              THEN 1 ELSE 0 END AS viol
  FROM read_parquet('{shards_glob}')
)
SELECT conv_id, cast(count(*) AS BIGINT) AS n_turns,
       cast(sum(viol) AS BIGINT) AS violations,
       cast(CASE WHEN sum(viol) = 0 THEN 1 ELSE 0 END AS BIGINT) AS alternating
FROM t GROUP BY conv_id
""",
    }


# =====================================================================
# Dedup with provenance merge: keeper + union of duplicate sources
# =====================================================================

def q_dedup_merge(sf_dir: str):
    """Exact dedup that MERGES metadata instead of dropping it: per
    content hash emit the keeper (min doc_id), the duplicate count and
    the sorted distinct source list — the provenance-union step real
    curation runs so the kept document remembers every crawl that
    carried it. Shuffle payload is (md5, doc_id, source) — the text is
    dropped before the exchange, same contract as ``dedup_exact``."""
    from ..functions.dedup import content_hash_batch

    ds = _rel._read(sf_dir, "documents", ["doc_id", "text", "source"])

    def _hash(batch: pa.Table) -> pa.Table:
        return content_hash_batch(batch).select(
            ["content_hash", "doc_id", "source"]
        )

    def _merge_shard(g: pd.DataFrame) -> pd.DataFrame:
        # per-SHARD vectorized grouping: keeper/size via C aggregates;
        # the sources string is one C-dispatched join per hash over the
        # (hash, source)-deduped sorted frame — the join is inherent
        # (the OUTPUT is one string per hash), the per-hash pandas-UDF
        # dispatch is not
        gb = g.groupby("content_hash", sort=False)
        base = gb.agg(
            keeper_doc_id=("doc_id", "min"), n_dups=("doc_id", "size")
        )
        src = (
            g[["content_hash", "source"]]
            .drop_duplicates()
            .sort_values(["content_hash", "source"], kind="mergesort")
            .groupby("content_hash", sort=False)["source"]
            .agg(",".join)
        )
        return pd.DataFrame(
            {
                "content_md5": base.index.to_numpy(),
                "keeper_doc_id": base["keeper_doc_id"].to_numpy(np.int64),
                "n_dups": base["n_dups"].to_numpy(np.int64),
                "sources": src.reindex(base.index).to_numpy(),
            }
        )

    return by_shard(
        ds.map_batches(_hash, batch_format="pyarrow"), "content_hash",
        _merge_shard,
        pa.schema(
            [
                ("content_md5", pa.string()),
                ("keeper_doc_id", pa.int64()),
                ("n_dups", pa.int64()),
                ("sources", pa.string()),
            ]
        ),
    )


SQL_DEDUP_MERGE = """
SELECT md5(coalesce(text, '')) AS content_md5,
       cast(min(doc_id) AS BIGINT) AS keeper_doc_id,
       cast(count(*) AS BIGINT) AS n_dups,
       string_agg(DISTINCT source, ',' ORDER BY source) AS sources
FROM documents
GROUP BY md5(coalesce(text, ''))
"""


# =====================================================================
# Language-ID confusion matrix: predicted vs labeled language
# =====================================================================

def q_lang_confusion(sf_dir: str):
    """(labeled lang, predicted lang, n_docs) — the evaluation matrix
    for the ``lang_id`` heuristic against the corpus labels. One
    streaming pass (the label rides next to the text, so prediction
    and comparison are batch-local) + one tiny groupby over the
    |langs|² domain."""
    from ray.data.aggregate import Sum

    from ..functions.text import LangId

    ds = _rel._read(sf_dir, "documents", ["doc_id", "text", "lang"])

    class _Confusion(LangId):
        def __call__(self, batch: pa.Table) -> pa.Table:
            preds = [
                self._predict(t) for t in batch.column("text").to_pylist()
            ]
            t = pa.table(
                {
                    "lang": batch.column("lang"),
                    "lang_pred": pa.array(preds),
                }
            )
            return t.group_by(["lang", "lang_pred"]).aggregate([([], "count_all")])

    return (
        ds.map_batches(_Confusion, batch_format="pyarrow", concurrency=(1, 2))
        .groupby(["lang", "lang_pred"])
        .aggregate(Sum("count_all"))
        .map_batches(
            lambda t: pa.table(
                {
                    "lang": t.column("lang"),
                    "lang_pred": t.column("lang_pred"),
                    "n_docs": pc.cast(t.column("sum(count_all)"), pa.int64()),
                }
            ),
            batch_format="pyarrow",
        )
    )


def _sql_lang_confusion() -> str:
    inner = _rel._sql_lang_id()
    return f"""
WITH pred AS ({inner})
SELECT d.lang, p.lang_pred, cast(count(*) AS BIGINT) AS n_docs
FROM documents d JOIN pred p USING (doc_id)
GROUP BY d.lang, p.lang_pred
"""


# =====================================================================
# Deterministic masked-LM corruption (T5/BERT-style span prep)
# =====================================================================

_MASK_EVERY = 7   # 0-based token index i is masked iff i % 7 == 3
_MASK_AT = 3
_MASK_TOK = "<mask>"


def _mlm_batch(batch: pa.Table) -> pa.Table:
    """Per-doc masking with a deterministic positional rule (so the
    SQL twin can mirror it exactly — a seeded-RNG span sampler would
    be rows-only). The per-doc split/join loop is inherent to
    list-of-token reassembly (same note as chunk_documents); the rule
    itself is O(tokens) with no backtracking."""
    ids = batch.column("doc_id").to_pylist()
    texts = batch.column("text").to_pylist()
    inputs, targets = [], []
    for t in texts:
        toks = (t or "").split()
        masked = [
            _MASK_TOK if i % _MASK_EVERY == _MASK_AT else w
            for i, w in enumerate(toks)
        ]
        picked = [w for i, w in enumerate(toks) if i % _MASK_EVERY == _MASK_AT]
        inputs.append(" ".join(masked))
        targets.append(" ".join(picked))
    return pa.table(
        {
            "doc_id": pa.array(ids, pa.int64()),
            "input_text": pa.array(inputs, pa.string()),
            "target_text": pa.array(targets, pa.string()),
        }
    )


def q_mlm_mask(sf_dir: str):
    """Masked-LM training-pair prep: replace every 7th token (offset 3)
    with a sentinel and emit (input, target) — the deterministic twin
    of T5-style span corruption, map-only and embarrassingly parallel.
    A production variant swaps the positional rule for a seeded
    per-doc RNG inside the same batch fn; the plumbing (schema, 1→1
    map, zero shuffle) is what this query locks down."""
    ds = _read(sf_dir, "documents", ["doc_id", "text"])
    return ds.map_batches(_mlm_batch, batch_format="pyarrow")


SQL_MLM_MASK = rf"""
WITH w AS (
  SELECT doc_id, regexp_split_to_array(trim(text), '\s+') AS ws
  FROM documents),
e AS (
  SELECT doc_id, ws, unnest(range(1, len(ws) + 1)) AS i FROM w)
SELECT doc_id,
       coalesce(string_agg(
         CASE WHEN (i-1) % {_MASK_EVERY} = {_MASK_AT}
              THEN '{_MASK_TOK}' ELSE ws[i] END, ' ' ORDER BY i), '')
           AS input_text,
       coalesce(string_agg(
         CASE WHEN (i-1) % {_MASK_EVERY} = {_MASK_AT}
              THEN ws[i] END, ' ' ORDER BY i), '') AS target_text
FROM e GROUP BY doc_id
"""


# =====================================================================
# Structural conversation dedup (role/template flow fingerprint)
# =====================================================================

#: Mersenne-prime modulus 2^61 − 1: products (turn_idx+1)·h stay inside
#: HUGEINT on the DuckDB side; on ours the modmul runs as a split-hi/lo
#: uint64 numpy kernel (VERDICT r3 #3 — no Python big-int loop)
_STRUCT_M = (1 << 61) - 1
_STRUCT_M64 = np.uint64(_STRUCT_M)

#: md5-of-(role|template) memo — the vocab is tiny; persists across
#: batches because Ray reuses worker processes
_STRUCT_MEMO: dict[str, int] = {}


def _red61(x: np.ndarray) -> np.ndarray:
    """x mod (2^61−1) for uint64 x — one fold via 2^61 ≡ 1 (mod M)
    plus a single conditional subtract (x < 2^64 ⇒ fold ≤ M+6)."""
    x = (x >> np.uint64(61)) + (x & _STRUCT_M64)
    return np.where(x >= _STRUCT_M64, x - _STRUCT_M64, x)


def _mulmod61(small, h: np.ndarray) -> np.ndarray:
    """(small·h) mod (2^61−1) in pure uint64: small ≤ 2^32,
    h < 2^61.  h splits at bit 31 so both partial products stay under
    2^63; the 2^31 shift reduces via 2^61 ≡ 1 (mod M)."""
    h_hi = h >> np.uint64(31)
    h_lo = h & np.uint64((1 << 31) - 1)
    p1 = _red61(small * h_hi)
    t1 = _red61(
        (p1 >> np.uint64(30))
        + ((p1 & np.uint64((1 << 30) - 1)) << np.uint64(31))
    )
    p2 = _red61(small * h_lo)
    return _red61(t1 + p2)


def q_dedup_conv_structure(sf_dir: str):
    """Conversation-level STRUCTURAL dedup over the mandated
    transcripts table: fingerprint each conversation's
    (turn_idx, role, template_id) flow and group identical flows —
    the 'drop scripted/boilerplate conversation shapes, keep one
    exemplar' pass that runs before expensive text-level near-dup.
    Fingerprint is the positional modular sum
    Σ (turn_idx+1)·(md5(role|template)%M) mod M — commutative, so each
    batch ships ONE partial per conversation (text and turn payload
    never shuffle; same trick as the order-independent
    ``table_checksum``), and a conversation split across blocks still
    reduces exactly.  Emits every conversation with its group keeper
    (min conv_id) and group size."""
    from ..transcripts import ensure_generated
    from .extraction import read_transcripts
    from .relational import _size_for

    ds = read_transcripts(ensure_generated(_size_for(sf_dir)))

    def _partial(batch: pa.Table) -> pa.Table:
        # per-turn term (turn_idx+1)·md5(role|template) mod M, fully in
        # uint64 numpy (VERDICT r3 #3): md5 only per UNIQUE key
        # (factorize + module memo), modmul via the split-hi/lo kernel,
        # per-conv accumulation via np.add.at on hi/lo 32-bit halves
        # (each half's batch sum stays far under 2^64)
        keys = pc.binary_join_element_wise(
            batch.column("role"),
            pc.cast(batch.column("template_id"), pa.string()),
            "|",
        )
        kcodes, kuniq = pd.factorize(keys.to_pandas(), sort=False)
        hvals = np.empty(len(kuniq), np.uint64)
        for i, k in enumerate(kuniq):
            h = _STRUCT_MEMO.get(k)
            if h is None:
                h = (
                    int.from_bytes(hashlib.md5(k.encode()).digest()[8:], "little")
                    % _STRUCT_M
                )
                _STRUCT_MEMO[k] = h
            hvals[i] = h
        t1 = batch.column("turn_idx").to_numpy(zero_copy_only=False).astype(
            np.uint64
        ) + np.uint64(1)
        term = _mulmod61(t1, hvals[kcodes])
        ccodes, cuniq = pd.factorize(
            batch.column("conv_id").to_pandas(), sort=False
        )
        acc_hi = np.zeros(len(cuniq), np.uint64)
        acc_lo = np.zeros(len(cuniq), np.uint64)
        np.add.at(acc_hi, ccodes, term >> np.uint64(32))
        np.add.at(acc_lo, ccodes, term & np.uint64(0xFFFFFFFF))
        s = _red61(
            _mulmod61(np.uint64(1) << np.uint64(32), _red61(acc_hi))
            + _red61(acc_lo)
        )
        # ship the conv partial split into 32-bit halves so the
        # downstream Sum aggregate cannot overflow int64 no matter how
        # many blocks a conversation spans
        return pa.table(
            {
                "conv_id": pa.array(np.asarray(cuniq), pa.string()),
                "s_hi": pa.array((s >> np.uint64(32)).astype(np.int64)),
                "s_lo": pa.array(
                    (s & np.uint64(0xFFFFFFFF)).astype(np.int64)
                ),
            }
        )

    from ray.data.aggregate import Sum

    sums = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("s_hi"), Sum("s_lo"))
    )

    def _fin(t: pa.Table) -> pa.Table:
        # Σ s_b = (Σ hi_b)·2^32 + Σ lo_b — one vectorized mod closes it
        hi = _red61(
            t.column("sum(s_hi)").to_numpy(zero_copy_only=False).astype(
                np.uint64
            )
        )
        lo = _red61(
            t.column("sum(s_lo)").to_numpy(zero_copy_only=False).astype(
                np.uint64
            )
        )
        fp = _red61(_mulmod61(np.uint64(1) << np.uint64(32), hi) + lo)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "fp": pa.array(fp.astype(np.int64)),
            }
        )

    fps = sums.map_batches(_fin, batch_format="pyarrow")

    def _group_shard(g: pd.DataFrame) -> pd.DataFrame:
        # one vectorized pandas groupby per SHARD (bounded), never one
        # UDF call per fingerprint
        gb = g.groupby("fp")["conv_id"]
        keeper = gb.transform("min")
        return pd.DataFrame(
            {
                "conv_id": g["conv_id"],
                "fp": g["fp"].to_numpy(np.int64),
                "keeper_conv": keeper,
                "is_keeper": (g["conv_id"] == keeper).to_numpy(np.int64),
                "group_size": gb.transform("size").to_numpy(np.int64),
            }
        )

    return by_shard(
        fps, "fp", _group_shard,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("fp", pa.int64()),
                ("keeper_conv", pa.string()),
                ("is_keeper", pa.int64()),
                ("group_size", pa.int64()),
            ]
        ),
    )


def _sql_dedup_conv_structure(shards_glob: str) -> str:
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, role, template_id
  FROM read_parquet('{shards_glob}')),
f AS (
  SELECT conv_id,
         cast(sum((cast(turn_idx AS HUGEINT) + 1)
                  * (cast(md5_number_lower(printf('%s|%d', role, template_id))
                          AS HUGEINT) % {_STRUCT_M}))
              % {_STRUCT_M} AS BIGINT) AS fp
  FROM t GROUP BY conv_id),
g AS (
  SELECT fp, min(conv_id) AS keeper_conv,
         cast(count(*) AS BIGINT) AS group_size
  FROM f GROUP BY fp)
SELECT f.conv_id, f.fp, g.keeper_conv,
       cast(CASE WHEN f.conv_id = g.keeper_conv THEN 1 ELSE 0 END AS BIGINT)
           AS is_keeper,
       g.group_size
FROM f JOIN g USING (fp)
"""


# =====================================================================
# Prompt/response pair extraction from transcripts
# =====================================================================

def q_qa_pairs(sf_dir: str):
    """Build (prompt → response) training pairs from the transcripts
    table: every user turn whose IMMEDIATELY FOLLOWING turn (by
    turn_idx within the conversation) is an assistant turn yields one
    pair — the instruction-tuning extraction step that follows
    main-content extraction.  Conversations go through the
    ``by_shard`` exchange on conv_id (conv-complete by construction)
    and are paired with one vectorized adjacent-row comparison per
    shard — the same high-cardinality-groupby avoidance as
    ``itemset_pairs``; text never shuffles (only lengths and
    timestamps ride along)."""
    from ..transcripts import ensure_generated
    from .extraction import read_transcripts
    from .relational import _size_for

    ds = read_transcripts(
        ensure_generated(_size_for(sf_dir)), with_route=False
    )

    def _partial(batch: pa.Table) -> pa.Table:
        return pa.table(
            {
                "conv_id": batch.column("conv_id"),
                "turn_idx": batch.column("turn_idx"),
                "role": batch.column("role"),
                "chars": pc.cast(
                    pc.utf8_length(pc.fill_null(batch.column("text"), "")),
                    pa.int64(),
                ),
                "us": pc.cast(batch.column("ts"), pa.int64()),
            }
        )

    def _pairs(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = d["conv_id"].to_numpy()
        role = d["role"].to_numpy()
        ti = d["turn_idx"].to_numpy(np.int64)
        ch = d["chars"].to_numpy(np.int64)
        us = d["us"].to_numpy(np.int64)
        m = (conv[:-1] == conv[1:]) & (role[:-1] == "user") & (
            role[1:] == "assistant"
        )
        i = np.flatnonzero(m)
        gap = us[i + 1] - us[i]
        return pd.DataFrame(
            {
                "conv_id": conv[i],
                "user_turn_idx": ti[i],
                "assistant_turn_idx": ti[i + 1],
                "prompt_chars": ch[i],
                "response_chars": ch[i + 1],
                # trunc-division mirror of DuckDB's integer `//`
                "gap_seconds": np.sign(gap) * (np.abs(gap) // 1_000_000),
            }
        )

    return by_shard(
        ds.map_batches(_partial, batch_format="pyarrow"), "conv_id", _pairs,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("user_turn_idx", pa.int64()),
                ("assistant_turn_idx", pa.int64()),
                ("prompt_chars", pa.int64()),
                ("response_chars", pa.int64()),
                ("gap_seconds", pa.int64()),
            ]
        ),
    )


def _sql_qa_pairs(shards_glob: str) -> str:
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, role,
         len(coalesce(text, '')) AS chars,
         epoch_us(cast(ts AS TIMESTAMP)) AS us
  FROM read_parquet('{shards_glob}')),
w AS (
  SELECT conv_id, turn_idx, role, chars, us,
         lead(turn_idx) OVER win AS nti,
         lead(role) OVER win AS nrole,
         lead(chars) OVER win AS nchars,
         lead(us) OVER win AS nus
  FROM t WINDOW win AS (PARTITION BY conv_id ORDER BY turn_idx))
SELECT conv_id,
       cast(turn_idx AS BIGINT) AS user_turn_idx,
       cast(nti AS BIGINT) AS assistant_turn_idx,
       cast(chars AS BIGINT) AS prompt_chars,
       cast(nchars AS BIGINT) AS response_chars,
       cast((nus - us) // 1000000 AS BIGINT) AS gap_seconds
FROM w WHERE role = 'user' AND nrole = 'assistant'
"""


# =====================================================================
# Tool-usage profile over transcripts
# =====================================================================

def q_tool_usage(sf_dir: str):
    """Per-tool usage profile over the transcripts table (turn count,
    distinct conversations, total payload chars) — the agent-pipeline
    health readout for the ``tool`` column.  Batch-local combine to
    (tool, conv) partials, one bounded exchange, then the distinct-
    conversation count is a second tiny groupby over one row per
    (tool, conv)."""
    from ray.data.aggregate import Count, Sum

    from ..transcripts import ensure_generated
    from .extraction import read_transcripts
    from .relational import _size_for

    ds = read_transcripts(
        ensure_generated(_size_for(sf_dir)), with_route=False
    )

    def _partial(batch: pa.Table) -> pa.Table:
        t = pa.table(
            {
                "tool": batch.column("tool"),
                "conv_id": batch.column("conv_id"),
                "chars": pc.cast(
                    pc.utf8_length(pc.fill_null(batch.column("text"), "")),
                    pa.int64(),
                ),
                "one": pa.array(np.ones(batch.num_rows, dtype=np.int64)),
            }
        ).filter(pc.not_equal(batch.column("tool"), ""))
        g = t.group_by(["tool", "conv_id"]).aggregate(
            [("one", "sum"), ("chars", "sum")]
        )
        return pa.table(
            {
                "tool": g.column("tool"),
                "conv_id": g.column("conv_id"),
                "n": g.column("one_sum"),
                "chars": g.column("chars_sum"),
            }
        )

    per_conv = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["tool", "conv_id"])
        .aggregate(Sum("n", alias_name="n"), Sum("chars", alias_name="chars"))
    )
    return per_conv.groupby("tool").aggregate(
        Sum("n", alias_name="n_turns"),
        Count(alias_name="n_convs"),
        Sum("chars", alias_name="sum_chars"),
    )


def _sql_tool_usage(shards_glob: str) -> str:
    return f"""
SELECT tool,
       cast(count(*) AS BIGINT) AS n_turns,
       cast(count(DISTINCT conv_id) AS BIGINT) AS n_convs,
       cast(sum(len(coalesce(text, ''))) AS BIGINT) AS sum_chars
FROM read_parquet('{shards_glob}')
WHERE tool <> ''
GROUP BY tool
"""


# =====================================================================
# Tokenizer fertility (chars per token) by language
# =====================================================================

def q_fertility_by_lang(sf_dir: str):
    """Characters-per-token by language — the tokenizer-budget
    read-out (a high-fertility language pays more tokens per character
    of content; drives per-language mixture weights).  Map-only
    partials (lang, n_docs, chars, tokens) per batch via Arrow RE2
    kernels, one tiny lang groupby; the final ratio is the single
    mirrored double op."""
    from ray.data.aggregate import Sum

    from .relational import _read

    def _partial(batch: pa.Table) -> pa.Table:
        txt = pc.fill_null(batch.column("text"), "")
        t = pa.table(
            {
                "lang": batch.column("lang"),
                "chars": pc.cast(pc.utf8_length(txt), pa.int64()),
                "toks": pc.cast(
                    pc.count_substring_regex(txt, r"\S+"), pa.int64()
                ),
                "docs": pa.array(np.ones(len(txt), dtype=np.int64)),
            }
        )
        return t.group_by("lang").aggregate(
            [("docs", "sum"), ("chars", "sum"), ("toks", "sum")]
        )

    agg = (
        _read(sf_dir, "documents", ["lang", "text"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(
            Sum("docs_sum", alias_name="n_docs"),
            Sum("chars_sum", alias_name="n_chars"),
            Sum("toks_sum", alias_name="n_tokens"),
        )
    )

    def _ratio(t: pa.Table) -> pa.Table:
        ch = t.column("n_chars").to_numpy().astype(np.int64)
        tk = t.column("n_tokens").to_numpy().astype(np.int64)
        cpt = np.floor(1e6 * ch / tk + 0.5).astype(np.int64)  # positive
        return pa.table(
            {
                "lang": t.column("lang"),
                "n_docs": t.column("n_docs"),
                "n_chars": pa.array(ch),
                "n_tokens": pa.array(tk),
                "cpt_e6": pa.array(cpt),
            }
        )

    return agg.map_batches(_ratio, batch_format="pyarrow")


SQL_FERTILITY = r"""
WITH c AS (
  SELECT lang,
         cast(len(coalesce(text, '')) AS BIGINT) AS chars,
         cast(len(regexp_extract_all(coalesce(text, ''), '\S+')) AS BIGINT)
             AS toks
  FROM documents),
s AS (
  SELECT lang, cast(count(*) AS BIGINT) AS n_docs,
         cast(sum(chars) AS BIGINT) AS n_chars,
         cast(sum(toks) AS BIGINT) AS n_tokens
  FROM c GROUP BY lang)
SELECT lang, n_docs, n_chars, n_tokens,
       cast(round(1000000.0 * n_chars / n_tokens, 0) AS BIGINT) AS cpt_e6
FROM s
"""


# =====================================================================
# Temperature-scaled mixing plan (T5/PaLM α-sampling)
# =====================================================================


def q_temperature_mix(sf_dir: str):
    """The data-MIXING PLAN multilingual/multi-source pretraining runs
    before sampling (Raffel et al. 2020 §3.4.3 / PaLM α-sampling):
    per-source sampling weight ∝ n_tokens^α with α = 1/2 (up-weights
    small sources, tempers head sources), then an exact
    largest-remainder integer allocation of a doc budget B = total
    docs across sources, and the per-source epoch factor the trainer
    consumes (base_epochs + remainder_docs docs seen once more).

    Exactness: w = round(√n_tokens·1e6) — sqrt is correctly-rounded
    IEEE on both engines, so the quantized weight is bit-identical;
    from there everything is integer (B·w products in Python
    bigints / HUGEINT; largest-remainder ties break on source name).

    Shape: per-batch (source, docs, tokens) partials → one
    source-bounded Sum exchange → a ≤|sources| driver fold (the
    exchange discipline: the output IS dimension-sized).  Output
    (source, n_docs, n_tokens, weight_e6, alloc_docs, base_epochs,
    remainder_docs)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["source", "text"])

    def _partial(t: pa.Table) -> pa.Table:
        toks = pc.cast(
            pc.count_substring_regex(
                pc.fill_null(t.column("text"), ""), r"\S+"
            ),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        codes, uniq = pd.factorize(t.column("source").to_pandas(), sort=False)
        nd = np.bincount(codes, minlength=len(uniq)).astype(np.int64)
        nt = np.zeros(len(uniq), np.int64)
        np.add.at(nt, codes, toks)
        return pa.table(
            {
                "source": pa.array(np.asarray(uniq), pa.string()),
                "n_docs": pa.array(nd),
                "n_tokens": pa.array(nt),
            }
        )

    sums = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("source")
        .aggregate(
            Sum("n_docs", alias_name="n_docs"),
            Sum("n_tokens", alias_name="n_tokens"),
        )
        .to_pandas()  # bounded by the source dimension
        .sort_values("source")
        .reset_index(drop=True)
    )
    nd = sums["n_docs"].to_numpy(np.int64)
    nt = sums["n_tokens"].to_numpy(np.int64)
    w = np.copysign(
        np.floor(np.abs(np.sqrt(nt.astype(np.float64)) * 1e6) + 0.5), 1.0
    ).astype(np.int64)
    B = int(nd.sum())
    W = int(w.sum())
    fl = np.array([(B * int(wi)) // W for wi in w], np.int64)
    rem = np.array([(B * int(wi)) % W for wi in w], np.int64)
    D = B - int(fl.sum())
    # largest remainder, ties by source name ascending (sums is
    # already source-sorted, so a stable argsort on -rem suffices)
    order = np.argsort(-rem, kind="stable")
    bump = np.zeros(len(w), np.int64)
    bump[order[:D]] = 1
    alloc = fl + bump
    return pa.table(
        {
            "source": pa.array(sums["source"].to_numpy(), pa.string()),
            "n_docs": pa.array(nd),
            "n_tokens": pa.array(nt),
            "weight_e6": pa.array(w),
            "alloc_docs": pa.array(alloc),
            "base_epochs": pa.array(alloc // nd),
            "remainder_docs": pa.array(alloc % nd),
        }
    )


SQL_TEMPERATURE_MIX = r"""
WITH s AS (
  SELECT source,
         cast(count(*) AS BIGINT) AS n_docs,
         cast(sum(CASE WHEN trim(coalesce(text, '')) = '' THEN 0
                  ELSE len(regexp_split_to_array(trim(text), '\s+')) END)
              AS BIGINT) AS n_tokens
  FROM documents GROUP BY source),
w AS (SELECT s.*, cast(round(sqrt(n_tokens) * 1000000, 0) AS BIGINT)
                AS weight_e6 FROM s),
t AS (SELECT cast(sum(weight_e6) AS HUGEINT) AS W,
             cast(sum(n_docs) AS HUGEINT) AS B FROM w),
f AS (SELECT w.*,
             cast((t.B * w.weight_e6) // t.W AS BIGINT) AS fl,
             cast((t.B * w.weight_e6) % t.W AS BIGINT) AS rem
      FROM w, t),
d AS (SELECT cast((SELECT B FROM t) - sum(fl) AS BIGINT) AS D FROM f),
r AS (SELECT f.*, row_number() OVER (ORDER BY rem DESC, source) AS rk
      FROM f)
SELECT source, n_docs, n_tokens, weight_e6,
       cast(fl + CASE WHEN rk <= (SELECT D FROM d) THEN 1 ELSE 0 END
            AS BIGINT) AS alloc_docs,
       cast((fl + CASE WHEN rk <= (SELECT D FROM d) THEN 1 ELSE 0 END)
            // n_docs AS BIGINT) AS base_epochs,
       cast((fl + CASE WHEN rk <= (SELECT D FROM d) THEN 1 ELSE 0 END)
            % n_docs AS BIGINT) AS remainder_docs
FROM r
"""



# =====================================================================
# Gopher repetition filters (round 5)
# =====================================================================

def q_gopher_repetition(sf_dir: str):
    """Within-document repetition signals in the style of the Gopher
    quality rules (Rae et al. 2021, "Scaling Language Models", table
    A1): per document, the char-weighted occurrence mass of (a) the
    single most frequent word 2-gram and (b) all DUPLICATED word
    5-grams — the two signals that catch boilerplate loops and
    templated spam that per-word statistics (TTR, quality_score) miss.

    Definitions (identical expression on both sides, integer-exact):
    tokens = lower().split() on whitespace; docs with >= 5 tokens;
    mass of an n-gram = count * len(gram string); ratios released as
    truncating e6 integers over the doc's total n-gram mass. Tie-break
    for the top 2-gram: (count desc, gram asc) — deterministic across
    engines (ASCII corpus, codepoint = binary collation).

    Scale shape: map-only, ZERO exchanges — each batch emits one row
    per qualifying doc; the per-doc Counter loop is inherent to
    n-gram counting (same rationale as the other text statistics) and
    is bounded by doc length. At 100 TB this is a pure streaming scan.
    """
    from collections import Counter

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _rep(batch: pa.Table) -> pa.Table:
        ids_out, grams, top_e6, dup_e6 = [], [], [], []
        for did, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            w = (t or "").lower().split()
            if len(w) < 5:
                continue
            c2 = Counter(zip(w, w[1:]))
            # mass = count * chars(gram) — chars include the space
            tot2 = 0
            best = None  # (-count, gram_str, mass)
            for (a, b), c in c2.items():
                g = a + " " + b
                m = c * len(g)
                tot2 += m
                k = (-c, g)
                if best is None or k < best[0]:
                    best = (k, g, m)
            c5 = Counter(
                zip(w, w[1:], w[2:], w[3:], w[4:])
            )
            tot5 = dup5 = 0
            for g5, c in c5.items():
                m = c * (sum(len(x) for x in g5) + 4)
                tot5 += m
                if c >= 2:
                    dup5 += m
            ids_out.append(did)
            grams.append(best[1])
            top_e6.append((1_000_000 * best[2]) // tot2)
            dup_e6.append((1_000_000 * dup5) // tot5)
        return pa.table(
            {
                "doc_id": pa.array(ids_out, pa.int64()),
                "top2_gram": pa.array(grams, pa.string()),
                "top2_char_e6": pa.array(top_e6, pa.int64()),
                "dup5_char_e6": pa.array(dup_e6, pa.int64()),
            }
        )

    return ds.map_batches(_rep, batch_format="pyarrow")


SQL_GOPHER_REPETITION = r"""
WITH w AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(coalesce(text, ''))), '\s+') AS w
  FROM documents
),
g2 AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(w)),
                               i -> w[i] || ' ' || w[i+1])) AS g
  FROM w WHERE len(w) >= 5
),
c2 AS (
  SELECT doc_id, g, count(*) AS c, cast(length(g) AS BIGINT) AS lg
  FROM g2 GROUP BY doc_id, g
),
t2 AS (
  SELECT doc_id, g AS top2_gram, c * lg AS topmass,
         row_number() OVER (PARTITION BY doc_id
                            ORDER BY c DESC, g ASC) AS rn,
         sum(c * lg) OVER (PARTITION BY doc_id) AS totmass
  FROM c2
),
g5 AS (
  SELECT doc_id,
         unnest(list_transform(range(1, len(w) - 3),
                               i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]
                                    || ' ' || w[i+3] || ' ' || w[i+4])) AS g
  FROM w WHERE len(w) >= 5
),
c5 AS (
  SELECT doc_id, g, count(*) AS c, cast(length(g) AS BIGINT) AS lg
  FROM g5 GROUP BY doc_id, g
),
d5 AS (
  SELECT doc_id,
         sum(CASE WHEN c >= 2 THEN c * lg ELSE 0 END) AS dupmass,
         sum(c * lg) AS totmass
  FROM c5 GROUP BY doc_id
)
SELECT t2.doc_id, t2.top2_gram,
       cast((1000000 * t2.topmass) // t2.totmass AS BIGINT)
           AS top2_char_e6,
       cast((1000000 * d5.dupmass) // d5.totmass AS BIGINT)
           AS dup5_char_e6
FROM t2 JOIN d5 ON t2.doc_id = d5.doc_id
WHERE t2.rn = 1
"""



# =====================================================================
# n-gram novelty (round 5)
# =====================================================================

def q_ngram_novelty(sf_dir: str):
    """Corpus-novelty curve: for each document, how many of its
    DISTINCT word 3-grams appear in NO smaller-doc_id document —
    i.e. the fraction of genuinely new content the doc adds under the
    corpus' canonical order. The signal data-mixing/selection work
    uses to downweight documents that only repeat what the corpus
    already contains. Emits (doc_id, n_grams, novel_grams,
    novelty_e6) over docs with >= 3 tokens; novelty_e6 is the exact
    truncating ``1e6 * novel // n`` integer.

    Scale shape: per-batch map emits DISTINCT (gram, doc_id) rows;
    ONE ``by_shard`` exchange on the gram co-locates every
    occurrence of a gram, and one vectorized pandas pass per shard
    computes each gram's min doc_id AND attributes novelty to that
    doc in the same pass (no second gram-keyed join); a final Sum
    exchange over doc_id folds the per-shard partials. Exchange
    payload is the distinct-gram list (vocabulary mass, Heaps' law),
    never repeated text. Numpy int64 is safe for the e6 release
    (wraps only past ~9.2e12 grams in one doc)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["doc_id", "text"])

    def _grams(batch: pa.Table) -> pa.Table:
        ids_out: list[int] = []
        grams: list[str] = []
        for did, t in zip(
            batch.column("doc_id").to_pylist(),
            batch.column("text").to_pylist(),
        ):
            w = (t or "").lower().split()
            if len(w) < 3:
                continue
            seen = {
                " ".join(w[i : i + 3]) for i in range(len(w) - 2)
            }
            for g in seen:
                ids_out.append(did)
                grams.append(g)
        return pa.table(
            {
                "gram": pa.array(grams, pa.string()),
                "doc_id": pa.array(ids_out, pa.int64()),
            }
        )

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        # min doc per gram + novelty attribution, one vectorized pass
        first = g.groupby("gram", sort=False)["doc_id"].transform("min")
        out = pd.DataFrame(
            {
                "doc_id": g["doc_id"],
                "n": 1,
                "novel": (g["doc_id"] == first).astype("int64"),
            }
        )
        return out.groupby("doc_id", sort=False, as_index=False).sum()

    partials = by_shard(
        ds.map_batches(_grams, batch_format="pyarrow"), "gram", _fold,
        pa.schema(
            [("doc_id", pa.int64()), ("n", pa.int64()), ("novel", pa.int64())]
        ),
    )
    sums = partials.groupby("doc_id").aggregate(
        Sum("n", alias_name="n_grams"), Sum("novel", alias_name="novel_grams")
    )

    def _fin(t: pa.Table) -> pa.Table:
        n = t.column("n_grams").to_numpy(zero_copy_only=False).astype(np.int64)
        nv = t.column("novel_grams").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        return pa.table(
            {
                "doc_id": pc.cast(t.column("doc_id"), pa.int64()),
                "n_grams": pa.array(n),
                "novel_grams": pa.array(nv),
                "novelty_e6": pa.array((1_000_000 * nv) // n),
            }
        )

    return sums.map_batches(_fin, batch_format="pyarrow")


SQL_NGRAM_NOVELTY = r"""
WITH w AS (
  SELECT doc_id,
         regexp_split_to_array(trim(lower(coalesce(text, ''))), '\s+') AS w
  FROM documents
),
gr AS (
  SELECT DISTINCT doc_id,
         unnest(list_transform(range(1, len(w) - 1),
                               i -> w[i] || ' ' || w[i+1] || ' ' || w[i+2]))
             AS gram
  FROM w WHERE len(w) >= 3
),
m AS (SELECT gram, min(doc_id) AS first_doc FROM gr GROUP BY gram)
SELECT gr.doc_id,
       cast(count(*) AS BIGINT) AS n_grams,
       cast(sum(CASE WHEN m.first_doc = gr.doc_id THEN 1 ELSE 0 END)
            AS BIGINT) AS novel_grams,
       cast((1000000 * sum(CASE WHEN m.first_doc = gr.doc_id
                                THEN 1 ELSE 0 END)) // count(*)
            AS BIGINT) AS novelty_e6
FROM gr JOIN m USING (gram)
GROUP BY gr.doc_id
"""


QUERIES = {
    "temperature_mix": q_temperature_mix,
    "textrank_terms": q_textrank_terms,
    "mlm_mask": q_mlm_mask,
    "dedup_conv_structure": q_dedup_conv_structure,
    "fertility_by_lang": q_fertility_by_lang,
    "qa_pairs": q_qa_pairs,
    "tool_usage": q_tool_usage,
    "conv_filter": q_conv_filter,
    "dialog_grammar": q_dialog_grammar,
    "dedup_merge": q_dedup_merge,
    "lang_confusion": q_lang_confusion,
    "pii_scrub": q_pii_scrub,
    "stratified_sample": q_stratified_sample,
    "word_diversity": q_word_diversity,
    "pack_conversations": q_pack_conversations,
    "oov_rate": q_oov_rate,
    "dedup_against_index": q_dedup_against_index,
    "mixture_sample": q_mixture_sample,
    "pack_budget": q_pack_budget,
    "unigram_logprob": q_unigram_logprob,
    "bigram_logprob": q_bigram_logprob,
    "context_windows": q_context_windows,
    "rank_normalize": q_rank_normalize,
    "text_normalize": q_text_normalize,
    "quality_filter_global": q_quality_filter_global,
    "turn_alternation": q_turn_alternation,
    "weighted_sample": q_weighted_sample,
    "gopher_repetition": q_gopher_repetition,
    "ngram_novelty": q_ngram_novelty,
}

ORACLE_SQL = {
    "temperature_mix": SQL_TEMPERATURE_MIX,
    "mlm_mask": SQL_MLM_MASK,
    "fertility_by_lang": SQL_FERTILITY,
    "pii_scrub": SQL_PII_SCRUB,
    "dedup_merge": SQL_DEDUP_MERGE,
    "stratified_sample": SQL_STRATIFIED,
    "word_diversity": SQL_WORD_DIVERSITY,
    "oov_rate": SQL_OOV_RATE,
    "dedup_against_index": SQL_DEDUP_AGAINST_INDEX,
    "mixture_sample": SQL_MIXTURE_SAMPLE,
    "pack_budget": SQL_PACK_BUDGET,
    "unigram_logprob": SQL_UNIGRAM_LOGPROB,
    "bigram_logprob": SQL_BIGRAM_LOGPROB,
    "rank_normalize": SQL_RANK_NORMALIZE,
    "text_normalize": SQL_TEXT_NORMALIZE,
    "quality_filter_global": SQL_QUALITY_FILTER_GLOBAL,
    "weighted_sample": SQL_WEIGHTED_SAMPLE,
    "gopher_repetition": SQL_GOPHER_REPETITION,
    "ngram_novelty": SQL_NGRAM_NOVELTY,
}
