"""Round-3 continuation #10: full BPE tokenizer train + encode — the
published subword pipeline (Sennrich, Haddow & Birch 2016, ACL:
"Neural Machine Translation of Rare Words with Subword Units"):

1. ONE distributed pass reduces the corpus to its word-frequency
   dictionary (the shuffle payload is per-batch vocabulary partials,
   never the token stream — the same reduction ``word_topk`` uses).
2. BPE merge training runs DRIVER-SIDE on the capped dictionary
   (top-V words by (count DESC, word ASC)); the published algorithm is
   inherently sequential in the merge rank, and its input is the
   bounded vocab, not the corpus — at 100 TB the vocab cap V is the
   knob, the corpus pass shape is unchanged.
3. The learned merge table broadcasts via closure (≤ _N_MERGES pairs)
   into an embarrassingly-parallel encode pass that memoizes
   segmentations per unique word per batch.

The driver-green oracle is an expected-twin parquet
(weakscraper_ray.oracles.bpe_twin): an independent single-threaded
implementation (different data structures, same published algorithm
and tie rules) over the same parquet input.  Determinism contract
shared by both sides: words are ``\\S+`` matches; merge choice is
(pair count DESC, pair lexicographic ASC); encoding applies the
lowest-rank applicable merge, leftmost-first, until none applies.

``bpe_top_pairs`` (dataops.py) counts initial pairs only; this module
owns the full train→encode loop.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _read

# RE2 on both sides: pyarrow's split_pattern_regex and DuckDB's
# regexp_* are both RE2, so `\s` / `\S` classes agree byte-for-byte.
_WS = r"\s+"
_TRIM = r"^\s+|\s+$"


# =====================================================================
# Vocabulary partials shared with retrieval.py, analytics.py and the
# statistics families: per-batch term and bigram counts, so the
# shuffle payload is the batch vocabulary
# =====================================================================

def _term_partial(batch: pa.Table) -> pa.Table:
    """Per-batch partial term counts: the shuffle payload is the batch
    *vocabulary* (term, n), not the token stream."""
    toks = pc.split_pattern_regex(batch.column("text"), pattern=_WS)
    flat = pc.drop_null(pc.list_flatten(toks))
    flat = flat.filter(pc.not_equal(flat, ""))  # boundary empties from leading/trailing ws
    vc = pc.value_counts(flat.combine_chunks() if isinstance(flat, pa.ChunkedArray) else flat)
    return pa.table(
        {"term": vc.field("values"), "n": pc.cast(vc.field("counts"), pa.int64())}
    )


def _topk_terms(ds, col: str, k: int):
    from ray.data.aggregate import Sum

    agg = ds.groupby(col).aggregate(Sum("n"))
    agg = agg.map_batches(
        lambda t: pa.table({col: t.column(col), "n": pc.cast(t.column("sum(n)"), pa.int64())}),
        batch_format="pyarrow",
    )
    return agg.sort(["n", col], descending=[True, False]).limit(k)


def _bigram_partial(batch: pa.Table) -> pa.Table:
    """Consecutive-token pairs within each document, vectorized over
    the flattened token array with list offsets masking doc
    boundaries."""
    txt = pc.replace_substring_regex(batch.column("text"), pattern=_TRIM, replacement="")
    keep = pc.not_equal(txt, "")
    txt = pc.drop_null(txt.filter(keep))
    if len(txt) == 0:
        return pa.table({"bigram": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    toks = pc.split_pattern_regex(txt, pattern=_WS)
    la = toks.combine_chunks() if isinstance(toks, pa.ChunkedArray) else toks
    flat = la.flatten().to_pandas().to_numpy()  # object array of str, no empties after trim
    offs = np.asarray(la.offsets)
    if len(flat) < 2:
        return pa.table({"bigram": pa.array([], pa.string()), "n": pa.array([], pa.int64())})
    left = pd.Series(flat[:-1])
    right = pd.Series(flat[1:])
    valid = np.ones(len(flat) - 1, dtype=bool)
    valid[offs[1:-1] - 1] = False  # last token of each doc pairs with next doc: drop
    vc = (left[valid] + " " + right[valid]).value_counts()
    return pa.table(
        {"bigram": pa.array(vc.index, pa.string()), "n": pa.array(vc.to_numpy(), pa.int64())}
    )


#: vocabulary cap for merge training (count DESC, word ASC)
_BPE_VOCAB = 10_000
#: number of merge rules learned
_N_MERGES = 64


def train_bpe(vocab: list[tuple[str, int]], n_merges: int) -> list[tuple[str, str]]:
    """Sequential BPE merge learning over a (word, count) dictionary.
    Deterministic: best pair = (count DESC, pair ASC)."""
    words: list[tuple[list[str], int]] = [(list(w), c) for w, c in vocab]
    merges: list[tuple[str, str]] = []
    for _ in range(n_merges):
        counts: dict[tuple[str, str], int] = {}
        for syms, c in words:
            for i in range(len(syms) - 1):
                p = (syms[i], syms[i + 1])
                counts[p] = counts.get(p, 0) + c
        if not counts:
            break
        best = min(counts.items(), key=lambda kv: (-kv[1], kv[0]))[0]
        merges.append(best)
        a, b = best
        ab = a + b
        for k, (syms, c) in enumerate(words):
            i, out = 0, []
            while i < len(syms):
                if i + 1 < len(syms) and syms[i] == a and syms[i + 1] == b:
                    out.append(ab)
                    i += 2
                else:
                    out.append(syms[i])
                    i += 1
            words[k] = (out, c)
    return merges


def encode_word(word: str, rank: dict[tuple[str, str], int]) -> int:
    """Number of BPE symbols for one word: apply the lowest-rank
    applicable merge (leftmost-first) until none applies."""
    syms = list(word)
    while len(syms) > 1:
        best_r, best_i = None, -1
        for i in range(len(syms) - 1):
            r = rank.get((syms[i], syms[i + 1]))
            if r is not None and (best_r is None or r < best_r):
                best_r, best_i = r, i
        if best_r is None:
            break
        syms[best_i : best_i + 2] = [syms[best_i] + syms[best_i + 1]]
    return len(syms)


def _word_counts_topv(sf_dir: str) -> list[tuple[str, int]]:
    """Distributed word-frequency dictionary, capped to _BPE_VOCAB."""
    ds = _read(sf_dir, "documents", ["text"])
    top = _topk_terms(
        ds.map_batches(_term_partial, batch_format="pyarrow"), "term", _BPE_VOCAB
    ).to_pandas()
    return [(str(t), int(n)) for t, n in zip(top["term"], top["n"])]


def q_bpe_encode(sf_dir: str):
    """(doc_id, n_words, n_bpe_tokens): corpus token counts under a
    64-merge BPE vocabulary trained on this corpus — the budget number
    every mixture/packing decision consumes.  Encode pass memoizes per
    unique word per batch (Zipf makes the memo hit rate ≈ the
    unique-word ratio); per-word scanning is inherent to BPE."""
    merges = train_bpe(_word_counts_topv(sf_dir), _N_MERGES)
    rank = {p: i for i, p in enumerate(merges)}

    def _encode(batch: pa.Table, rank=rank) -> pa.Table:
        toks = pc.split_pattern_regex(
            pc.fill_null(batch.column("text"), ""), pattern=r"\s+"
        ).to_pylist()
        memo: dict[str, int] = {}
        n_words = np.zeros(batch.num_rows, dtype=np.int64)
        n_bpe = np.zeros(batch.num_rows, dtype=np.int64)
        for j, words in enumerate(toks):
            tot = cnt = 0
            for w in words:
                if not w:
                    continue
                cnt += 1
                k = memo.get(w)
                if k is None:
                    k = encode_word(w, rank)
                    memo[w] = k
                tot += k
            n_words[j] = cnt
            n_bpe[j] = tot
        return pa.table(
            {
                "doc_id": batch.column("doc_id"),
                "n_words": pa.array(n_words),
                "n_bpe_tokens": pa.array(n_bpe),
            }
        )

    return _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        _encode, batch_format="pyarrow"
    )


def dynamic_oracle_sql(sf_dir: str) -> dict[str, str]:
    from .. import oracles

    return {
        "bpe_encode": (
            "SELECT doc_id, n_words, n_bpe_tokens "
            f"FROM read_parquet('{oracles.bpe_twin(sf_dir)}')"
        ),
    }


QUERIES = {"bpe_encode": q_bpe_encode}
ORACLE_SQL: dict[str, str] = {}
