"""Round-4 transcript-table operators — the conversation-hygiene
read-outs an agent-transcript curation pipeline runs between
extraction and packing (north_rule: the mandated input is multi-turn
conversation/agent transcripts):

- ``turn_latency``    per-conversation user→assistant response
                      latency (count / total / max µs): the
                      responsiveness audit over agent logs
- ``response_ratio``  assistant-chars : user-chars per conversation
                      (verbose-assistant / thin-prompt signal used as
                      a curation filter feature)
- ``conv_truncate``   context-budget truncation statistics: how many
                      leading turns (and chars) survive a fixed
                      cumulative character budget — the planning
                      read-out for context-window packing
- ``turn_dedup``      turn-level exact dedup across conversations
                      (verbatim canned-response detector)
- ``turn_echo``       assistant echo rate vs the preceding user turn
                      (parroting / copy-loop detector)
- ``tool_bigrams``    consecutive tool-invocation chaining counts
                      (which tool follows which, corpus-wide)

Scale shape (all three): the text column NEVER shuffles — each batch
is reduced to (conv_id, turn_idx, role, chars|us) before any exchange;
conversations go through the ``functions.exchange.by_shard``
exchange on conv_id (the ``qa_pairs`` high-cardinality-groupby
avoidance) and each shard folds with ONE
vectorized pandas sort + groupby — UDF calls scale with shard count,
never with conversation cardinality.  ``response_ratio`` needs no
order at all and is a plain Sum-aggregate exchange.

Exactness: chars = utf8 length (DuckDB ``length``), time in integer
µs (DuckDB ``epoch_us``); ratios released as exact truncating
``*_e6`` integers — every column hash-compares bit-for-bit against
the SQL twins.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import by_shard
from .relational import _read, _size_for  # noqa: F401

#: conv_truncate cumulative character budget (a context-window proxy)
_TRUNC_BUDGET = 2000


def _read_tr(sf_dir: str):
    from ..transcripts import ensure_generated
    from .extraction import read_transcripts

    return read_transcripts(
        ensure_generated(_size_for(sf_dir)), with_route=False
    )


def _slim_partial(batch: pa.Table) -> pa.Table:
    """(conv_id, turn_idx, role, chars, us) — the slim rows the ordered
    folds exchange on conv_id; text dropped here."""
    return pa.table(
        {
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int64()),
            "role": batch.column("role"),
            "chars": pc.cast(
                pc.utf8_length(pc.fill_null(batch.column("text"), "")),
                pa.int64(),
            ),
            "us": pc.cast(batch.column("ts"), pa.int64()),
        }
    )


# =====================================================================
# turn_latency
# =====================================================================

def q_turn_latency(sf_dir: str):
    """Per-conversation response-latency roll-up: every assistant turn
    at turn_idx i whose immediate predecessor (i−1) is a user turn is
    one RESPONSE with latency ts_i − ts_{i−1}; emit conversations with
    ≥1 response as (conv_id, n_responses, sum_latency_us,
    max_latency_us)."""
    slim = _read_tr(sf_dir).map_batches(
        _slim_partial, batch_format="pyarrow"
    )

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = d["conv_id"].to_numpy()
        role = d["role"].to_numpy()
        ti = d["turn_idx"].to_numpy(np.int64)
        us = d["us"].to_numpy(np.int64)
        m = (
            (conv[1:] == conv[:-1])
            & (ti[1:] == ti[:-1] + 1)
            & (role[1:] == "assistant")
            & (role[:-1] == "user")
        )
        lat = pd.DataFrame(
            {
                "conv_id": conv[1:][m],
                "lat": us[1:][m] - us[:-1][m],
            }
        )
        agg = lat.groupby("conv_id", sort=False)["lat"].agg(
            ["size", "sum", "max"]
        )
        return pd.DataFrame(
            {
                "conv_id": agg.index.to_numpy(),
                "n_responses": agg["size"].to_numpy(np.int64),
                "sum_latency_us": agg["sum"].to_numpy(np.int64),
                "max_latency_us": agg["max"].to_numpy(np.int64),
            }
        )

    return by_shard(
        slim, "conv_id", _fold,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("n_responses", pa.int64()),
                ("sum_latency_us", pa.int64()),
                ("max_latency_us", pa.int64()),
            ]
        ),
    )


def _sql_turn_latency(shards_glob: str) -> str:
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, role, epoch_us(ts) AS us,
         lag(role) OVER w AS prev_role,
         lag(turn_idx) OVER w AS prev_ti,
         lag(epoch_us(ts)) OVER w AS prev_us
  FROM read_parquet('{shards_glob}')
  WINDOW w AS (PARTITION BY conv_id ORDER BY turn_idx)
)
SELECT conv_id,
       cast(count(*) AS BIGINT) AS n_responses,
       cast(sum(us - prev_us) AS BIGINT) AS sum_latency_us,
       cast(max(us - prev_us) AS BIGINT) AS max_latency_us
FROM t
WHERE role = 'assistant' AND prev_role = 'user'
  AND turn_idx = prev_ti + 1
GROUP BY conv_id
"""


# =====================================================================
# response_ratio
# =====================================================================

def q_response_ratio(sf_dir: str):
    """assistant-chars : user-chars per conversation (conversations
    with zero user chars are filtered — no ratio exists).  Zero keyed
    order needed: per-batch (conv, user_chars, assistant_chars)
    partials → one Sum-aggregate exchange → vectorized ratio."""
    from ray.data.aggregate import Sum

    ds = _read_tr(sf_dir)

    def _partial(batch: pa.Table) -> pa.Table:
        role = batch.column("role").to_pandas()
        ch = pc.cast(
            pc.utf8_length(pc.fill_null(batch.column("text"), "")),
            pa.int64(),
        ).to_numpy(zero_copy_only=False)
        conv = batch.column("conv_id").to_pandas()
        df = pd.DataFrame(
            {
                "conv_id": conv,
                "u": np.where(role == "user", ch, 0),
                "a": np.where(role == "assistant", ch, 0),
            }
        )
        g = df.groupby("conv_id", sort=False).sum()
        return pa.table(
            {
                "conv_id": pa.array(g.index.to_numpy(), pa.string()),
                "u": pa.array(g["u"].to_numpy(np.int64)),
                "a": pa.array(g["a"].to_numpy(np.int64)),
            }
        )

    sums = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby("conv_id")
        .aggregate(Sum("u", alias_name="u"), Sum("a", alias_name="a"))
    )

    def _fin(t: pa.Table) -> pa.Table:
        u = t.column("u").to_numpy(zero_copy_only=False).astype(np.int64)
        a = t.column("a").to_numpy(zero_copy_only=False).astype(np.int64)
        keep = u > 0
        return pa.table(
            {
                "conv_id": t.column("conv_id").filter(pa.array(keep)),
                "user_chars": pa.array(u[keep]),
                "assistant_chars": pa.array(a[keep]),
                # numpy int64 multiply is safe here: wraps only if one
                # conversation holds > 9.2e12 assistant chars (~9 TB of
                # text in a single conv) — physically out of range even
                # at 10^12-turn corpus scale, unlike the cents sums
                # guarded in tpch_ops/analytics (ADVICE r4)
                "ratio_e6": pa.array((1_000_000 * a[keep]) // u[keep]),
            }
        )

    return sums.map_batches(_fin, batch_format="pyarrow")


def _sql_response_ratio(shards_glob: str) -> str:
    return f"""
WITH s AS (
  SELECT conv_id,
         sum(CASE WHEN role = 'user'
                  THEN length(coalesce(text, '')) ELSE 0 END) AS u,
         sum(CASE WHEN role = 'assistant'
                  THEN length(coalesce(text, '')) ELSE 0 END) AS a
  FROM read_parquet('{shards_glob}')
  GROUP BY conv_id)
SELECT conv_id,
       cast(u AS BIGINT) AS user_chars,
       cast(a AS BIGINT) AS assistant_chars,
       cast((1000000 * a) // u AS BIGINT) AS ratio_e6
FROM s WHERE u > 0
"""


# =====================================================================
# conv_truncate
# =====================================================================

def q_conv_truncate(sf_dir: str):
    """Context-budget truncation statistics: walking each conversation
    in turn order, a turn is KEPT while the running character total
    (including it) stays ≤ the budget.  Emits (conv_id, n_turns,
    n_kept, kept_chars) — the packing planner's feed."""
    slim = _read_tr(sf_dir).map_batches(
        _slim_partial, batch_format="pyarrow"
    )

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        cum = d.groupby("conv_id", sort=False)["chars"].cumsum().to_numpy(
            np.int64
        )
        kept = cum <= _TRUNC_BUDGET
        ch = d["chars"].to_numpy(np.int64)
        df = pd.DataFrame(
            {
                "conv_id": d["conv_id"].to_numpy(),
                "one": np.ones(len(d), np.int64),
                "k": kept.astype(np.int64),
                "kc": np.where(kept, ch, 0),
            }
        )
        agg = df.groupby("conv_id", sort=False).sum()
        return pd.DataFrame(
            {
                "conv_id": agg.index.to_numpy(),
                "n_turns": agg["one"].to_numpy(np.int64),
                "n_kept": agg["k"].to_numpy(np.int64),
                "kept_chars": agg["kc"].to_numpy(np.int64),
            }
        )

    return by_shard(
        slim, "conv_id", _fold,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("n_turns", pa.int64()),
                ("n_kept", pa.int64()),
                ("kept_chars", pa.int64()),
            ]
        ),
    )


def _sql_conv_truncate(shards_glob: str) -> str:
    return f"""
WITH t AS (
  SELECT conv_id, length(coalesce(text, '')) AS ch,
         sum(length(coalesce(text, '')))
             OVER (PARTITION BY conv_id ORDER BY turn_idx
                   ROWS UNBOUNDED PRECEDING) AS cum
  FROM read_parquet('{shards_glob}'))
SELECT conv_id,
       cast(count(*) AS BIGINT) AS n_turns,
       cast(sum(CASE WHEN cum <= {_TRUNC_BUDGET} THEN 1 ELSE 0 END)
            AS BIGINT) AS n_kept,
       cast(sum(CASE WHEN cum <= {_TRUNC_BUDGET} THEN ch ELSE 0 END)
            AS BIGINT) AS kept_chars
FROM t GROUP BY conv_id
"""


# =====================================================================
# turn_dedup
# =====================================================================

def q_turn_dedup(sf_dir: str):
    """TURN-level exact dedup across conversations: non-empty turn
    texts that appear verbatim in ≥2 turns anywhere in the corpus —
    the copy-paste / canned-response detector that complements
    ``dedup_conv_structure`` (which fingerprints conversation SHAPE,
    not content).  Emits (text_md5, n_turns, n_convs, keeper_conv,
    keeper_turn) with keeper = lexicographically smallest
    (conv_id, turn_idx).

    Shape: per-batch md5 (text dropped immediately — only 32-byte
    digests + keys exchange), one ``by_shard`` exchange on the digest,
    vectorized per-shard groupby (size / nunique / sorted-first)."""
    import hashlib

    ds = _read_tr(sf_dir)

    def _hash(batch: pa.Table) -> pa.Table:
        texts = batch.column("text").to_pylist()
        keep, hs = [], []
        for i, t in enumerate(texts):
            if t is None or t == "":
                continue
            keep.append(i)
            hs.append(hashlib.md5(t.encode("utf-8")).hexdigest())
        taken = batch.take(pa.array(keep, pa.int64()))
        return pa.table(
            {
                "text_md5": pa.array(hs, pa.string()),
                "conv_id": taken.column("conv_id"),
                "turn_idx": pc.cast(taken.column("turn_idx"), pa.int64()),
            }
        )

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(
            ["text_md5", "conv_id", "turn_idx"], kind="mergesort"
        )
        gb = d.groupby("text_md5", sort=False)
        n = gb.size()
        nc = gb["conv_id"].nunique()
        first = gb.head(1).set_index("text_md5")
        out = pd.DataFrame(
            {
                "text_md5": n.index.to_numpy(),
                "n_turns": n.to_numpy(np.int64),
                "n_convs": nc.to_numpy(np.int64),
                "keeper_conv": first["conv_id"].reindex(n.index).to_numpy(),
                "keeper_turn": first["turn_idx"].reindex(n.index).to_numpy(
                    np.int64
                ),
            }
        )
        return out[out["n_turns"] >= 2]

    return by_shard(
        ds.map_batches(_hash, batch_format="pyarrow"), "text_md5", _fold,
        pa.schema(
            [
                ("text_md5", pa.string()),
                ("n_turns", pa.int64()),
                ("n_convs", pa.int64()),
                ("keeper_conv", pa.string()),
                ("keeper_turn", pa.int64()),
            ]
        ),
    )


def _sql_turn_dedup(shards_glob: str) -> str:
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, md5(text) AS text_md5
  FROM read_parquet('{shards_glob}')
  WHERE text IS NOT NULL AND text <> ''),
g AS (
  SELECT text_md5,
         cast(count(*) AS BIGINT) AS n_turns,
         cast(count(DISTINCT conv_id) AS BIGINT) AS n_convs,
         min(conv_id) AS keeper_conv
  FROM t GROUP BY text_md5 HAVING count(*) >= 2)
SELECT g.text_md5, g.n_turns, g.n_convs, g.keeper_conv,
       cast(min(t.turn_idx) AS BIGINT) AS keeper_turn
FROM g JOIN t ON t.text_md5 = g.text_md5 AND t.conv_id = g.keeper_conv
GROUP BY 1, 2, 3, 4
"""



# =====================================================================
# turn_echo
# =====================================================================

def q_turn_echo(sf_dir: str):
    """Assistant echo rate — the parroting/copy-loop detector for
    agent transcripts: for every assistant turn whose immediate
    predecessor is a user turn, the fraction of the assistant's word
    OCCURRENCES already present in the preceding user turn's word set.
    Per-conversation roll-up (conv_id, n_responses, echoed_words,
    assistant_words, echo_e6) over conversations with at least one
    response containing words; echo_e6 is the exact truncating
    ``1e6 * echoed // total`` integer.

    Scale shape: unlike its siblings this operator's semantics NEED
    cross-turn token content, so the shard exchange ships per-turn
    token LISTS (pre-split, empty-filtered — no raw text), keyed on
    conv_id like its siblings; one vectorized-sort + linear
    adjacent-pair pass per shard, word-set membership per response
    pair. At 100 TB the production variant hashes tokens to u64 in the
    map phase (4-8x smaller exchange; collision odds ~pairs*len^2/2^64)
    — kept as words here because the correctness gate hash-compares
    bit-for-bit against the SQL twin. Numpy int64 is safe for the e6
    release: it would wrap only past ~9.2e12 assistant words in ONE
    conversation."""
    slim = _read_tr(sf_dir).map_batches(_echo_partial, batch_format="pyarrow")

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = d["conv_id"].to_numpy()
        role = d["role"].to_numpy()
        ti = d["turn_idx"].to_numpy(np.int64)
        words = d["words"].to_numpy(dtype=object)
        out: dict[str, list[int]] = {}
        for i in range(1, len(d)):
            if (
                conv[i] == conv[i - 1]
                and ti[i] == ti[i - 1] + 1
                and role[i] == "assistant"
                and role[i - 1] == "user"
            ):
                uset = set(words[i - 1])
                aw = words[i]
                echoed = sum(1 for w in aw if w in uset)
                acc = out.setdefault(conv[i], [0, 0, 0])
                acc[0] += 1
                acc[1] += echoed
                acc[2] += len(aw)
        res = pd.DataFrame(
            [(c, n, e, t) for c, (n, e, t) in out.items() if t > 0],
            columns=[
                "conv_id", "n_responses", "echoed_words", "assistant_words"
            ],
        )
        res["echo_e6"] = (
            1_000_000 * res["echoed_words"]
        ) // res["assistant_words"]
        return res

    return by_shard(
        slim, "conv_id", _fold,
        pa.schema(
            [
                ("conv_id", pa.string()),
                ("n_responses", pa.int64()),
                ("echoed_words", pa.int64()),
                ("assistant_words", pa.int64()),
                ("echo_e6", pa.int64()),
            ]
        ),
    )


def _echo_partial(batch: pa.Table) -> pa.Table:
    """(conv_id, turn_idx, role, words) — token lists, not raw text."""
    words = [
        (t or "").lower().split()
        for t in batch.column("text").to_pylist()
    ]
    return pa.table(
        {
            "conv_id": batch.column("conv_id"),
            "turn_idx": pc.cast(batch.column("turn_idx"), pa.int64()),
            "role": batch.column("role"),
            "words": pa.array(words, pa.list_(pa.string())),
        }
    )


def _sql_turn_echo(shards_glob: str) -> str:
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, role,
         regexp_split_to_array(trim(lower(coalesce(text, ''))), '\\s+') AS w,
         lag(role) OVER w2 AS prev_role,
         lag(turn_idx) OVER w2 AS prev_ti,
         lag(regexp_split_to_array(trim(lower(coalesce(text, ''))),
                                   '\\s+')) OVER w2 AS prev_w
  FROM read_parquet('{shards_glob}')
  WINDOW w2 AS (PARTITION BY conv_id ORDER BY turn_idx)
),
r AS (
  SELECT conv_id,
         len(list_filter(w, x -> x <> '' AND list_contains(prev_w, x)))
             AS echoed,
         len(list_filter(w, x -> x <> '')) AS total
  FROM t
  WHERE role = 'assistant' AND prev_role = 'user'
    AND turn_idx = prev_ti + 1
)
SELECT conv_id,
       cast(count(*) AS BIGINT) AS n_responses,
       cast(sum(echoed) AS BIGINT) AS echoed_words,
       cast(sum(total) AS BIGINT) AS assistant_words,
       cast((1000000 * sum(echoed)) // sum(total) AS BIGINT) AS echo_e6
FROM r
GROUP BY conv_id
HAVING sum(total) > 0
"""



# =====================================================================
# tool_bigrams
# =====================================================================

def q_tool_bigrams(sf_dir: str):
    """Tool-chaining patterns over agent transcripts: for each
    conversation, the sequence of tool invocations (rows with a
    non-empty ``tool``, ordered by turn_idx, intervening non-tool
    turns skipped) yields consecutive (tool_a, tool_b) bigrams;
    emit corpus-wide counts — the "which tool follows which" read-out
    that drives tool-routing and agent-scaffold analyses.

    Scale shape: the slim partial ships only (conv_id, turn_idx, tool)
    for tool rows; one vectorized sort + adjacency mask per
    ``by_shard`` conv shard emits PRE-AGGREGATED per-shard
    bigram counts (the key domain is |tools|² — bounded), and one
    tiny Sum exchange folds shards. No text, no per-conv dispatch."""
    from ray.data.aggregate import Sum

    slim = _read_tr(sf_dir).map_batches(
        _tool_partial, batch_format="pyarrow"
    )

    def _fold(g: pd.DataFrame) -> pd.DataFrame:
        d = g.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        conv = d["conv_id"].to_numpy()
        tool = d["tool"].to_numpy()
        m = conv[1:] == conv[:-1]
        pairs = pd.DataFrame(
            {"tool_a": tool[:-1][m], "tool_b": tool[1:][m]}
        )
        return (
            pairs.groupby(["tool_a", "tool_b"], sort=False)
            .size()
            .reset_index(name="n")
        )

    counted = by_shard(
        slim, "conv_id", _fold,
        pa.schema(
            [
                ("tool_a", pa.string()),
                ("tool_b", pa.string()),
                ("n", pa.int64()),
            ]
        ),
    )
    return counted.groupby(["tool_a", "tool_b"]).aggregate(
        Sum("n", alias_name="n")
    )


def _tool_partial(batch: pa.Table) -> pa.Table:
    """(conv_id, turn_idx, tool) for TOOL rows only; text/ts never
    ship."""
    mask = pc.and_(
        pc.is_valid(batch.column("tool")),
        pc.not_equal(pc.fill_null(batch.column("tool"), ""), ""),
    )
    b = batch.filter(mask)
    return pa.table(
        {
            "conv_id": b.column("conv_id"),
            "turn_idx": pc.cast(b.column("turn_idx"), pa.int64()),
            "tool": b.column("tool"),
        }
    )


def _sql_tool_bigrams(shards_glob: str) -> str:
    return f"""
WITH t AS (
  SELECT conv_id, turn_idx, tool,
         lag(tool) OVER (PARTITION BY conv_id ORDER BY turn_idx)
             AS prev_tool
  FROM read_parquet('{shards_glob}')
  WHERE tool IS NOT NULL AND tool <> ''
)
SELECT prev_tool AS tool_a, tool AS tool_b,
       cast(count(*) AS BIGINT) AS n
FROM t
WHERE prev_tool IS NOT NULL
GROUP BY prev_tool, tool
"""


# =====================================================================
# registration
# =====================================================================

QUERIES = {
    "turn_latency": q_turn_latency,
    "response_ratio": q_response_ratio,
    "conv_truncate": q_conv_truncate,
    "turn_dedup": q_turn_dedup,
    "turn_echo": q_turn_echo,
    "tool_bigrams": q_tool_bigrams,
}


def dynamic_oracle_sql(sf_dir: str) -> dict[str, str]:
    from ..transcripts import ensure_generated

    shards_glob = f"{ensure_generated(_size_for(sf_dir))}/part-*.parquet"
    return {
        "turn_latency": _sql_turn_latency(shards_glob),
        "response_ratio": _sql_response_ratio(shards_glob),
        "conv_truncate": _sql_conv_truncate(shards_glob),
        "turn_dedup": _sql_turn_dedup(shards_glob),
        "turn_echo": _sql_turn_echo(shards_glob),
        "tool_bigrams": _sql_tool_bigrams(shards_glob),
    }
