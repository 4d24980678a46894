"""Round-3 continuation #9: warehouse/data-ops primitives — CDC
upsert merge, declarative expectation audits, tokenizer-training pair
counting, market-basket co-occurrence mining, and space-filling-curve
data layout. Each is a ``queries()`` entry with a DuckDB oracle twin.

Scale notes (the patterns these queries demonstrate):
- upsert merge (last-writer-wins CDC apply, the Delta/Iceberg MERGE
  primitive): tagged union of snapshot + change-log rows carrying only
  (key, payload, version, op) → ONE key-shard exchange → per-shard
  vectorized winner pick (groupby-idxmax on version) → tombstone
  filter. At 100 TB the change log is usually ≪ the snapshot, so the
  same shape also supports a broadcast apply when the delta fits in
  the object store; the shuffle form here is the general case.
- expectation audit (Great-Expectations-style rule battery): the
  whole battery is evaluated as vectorized boolean kernels per batch,
  reduced to a 5-row partial per batch — map-only over the fact table,
  then a constant-size groupby. Zero payload leaves the scan beyond
  (rule, violations, n_checked) int64 triples.
- byte-pair counting (the inner loop of BPE tokenizer training, one
  merge round): each batch's strings are joined with a NUL separator
  and viewed as a uint8 numpy array; adjacent-pair ids (256·a + b) are
  histogrammed with one ``np.bincount`` — no per-row Python. Partials
  are (pair_id, n) rows bounded by 65,536 regardless of corpus size,
  so the exchange and the driver-side final top-k are O(1) in the
  input. (Byte == char here: the corpus is ASCII; the SQL twin's
  char-based substr would diverge on multi-byte text, and a real BPE
  trainer is byte-level anyway.)
- co-occurrence mining (frequent-itemset pair support, the
  market-basket primitive behind "related items"): ONE order-shard
  exchange co-locates each basket, then pairs are enumerated with
  pure index arithmetic (np.repeat over per-basket pair counts — no
  per-basket Python loop) and pre-counted per shard before the second,
  much smaller (pair, n) exchange. Support filtering happens on the
  aggregated table, so the heavy basket payload never shuffles twice.
- z-order layout (multi-dimensional clustering for block pruning —
  the public Morton-curve technique behind Delta/Iceberg OPTIMIZE
  ZORDER): interleave the bits of two bucketed sort keys via a
  256-entry lookup table, tile by the high bits, and report per-tile
  min/max spans of BOTH dimensions. The spans are the proof of value:
  every tile covers an 8×8 rectangle, so a range predicate on EITHER
  column prunes ~15/16 of tiles, where a single-column sort prunes
  only its own column. Map-only partials + one bounded groupby(tile).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .relational import _i64_away, _p, _read

_US_PER_DAY = 86_400_000_000

# =====================================================================
# CDC upsert merge (last-writer-wins + tombstones)
# =====================================================================
# The change log is synthesized deterministically FROM the snapshot
# (no external data): keys %7==0 get an update (+1000.00), keys %13==0
# spawn an insert under -(k+1) (never collides with the non-negative
# base keys — the data really contains o_orderkey = 0, where a plain
# -k would alias the base key and the tombstone would swallow the
# insert), keys %11==0 get a delete tombstone. version: base=0,
# update/insert=1, delete=2 — strictly ordered by construction, so
# "max version wins" is unambiguous.

_UPSERT_SHARDS = 64


def _upsert_log(batch: pa.Table) -> pa.Table:
    k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
    cents = _i64_away(batch.column("o_totalprice"), 100.0).to_numpy(
        zero_copy_only=False
    )
    upd = k % 7 == 0
    ins = k % 13 == 0
    dele = k % 11 == 0
    ks = [k, k[upd], -(k[ins] + 1), k[dele]]
    cs = [cents, cents[upd] + 100_000, cents[ins], np.zeros(dele.sum(), np.int64)]
    vs = [np.full(len(a), v, np.int64) for a, v in zip(ks, (0, 1, 1, 2))]
    ops = ["U"] * len(k) + ["U"] * int(upd.sum()) + ["I"] * int(ins.sum()) + [
        "D"
    ] * int(dele.sum())
    kk = np.concatenate(ks)
    return pa.table(
        {
            "shard": pa.array(kk & (_UPSERT_SHARDS - 1), pa.int64()),
            "k": pa.array(kk, pa.int64()),
            "cents": pa.array(np.concatenate(cs), pa.int64()),
            "version": pa.array(np.concatenate(vs), pa.int64()),
            "op": pa.array(ops, pa.string()),
        }
    )


def _upsert_merge(g: pd.DataFrame) -> pd.DataFrame:
    win = g.loc[g.groupby("k")["version"].idxmax()]
    win = win[win["op"] != "D"]
    return pd.DataFrame(
        {
            "o_orderkey": win["k"].to_numpy(np.int64),
            "cents": win["cents"].to_numpy(np.int64),
            "version": win["version"].to_numpy(np.int64),
        }
    )


def q_upsert_snapshot(sf_dir: str):
    """Apply a CDC change log (updates + inserts + delete tombstones)
    to a snapshot with last-writer-wins semantics: one key-shard
    exchange, per-shard vectorized ``idxmax(version)`` winner pick,
    tombstones dropped after the pick (so a delete beats the base row
    it shadows)."""
    ds = _read(sf_dir, "orders", ["o_orderkey", "o_totalprice"])
    return (
        ds.map_batches(_upsert_log, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_upsert_merge, batch_format="pandas")
    )


SQL_UPSERT = """
WITH base AS (
  SELECT o_orderkey AS k, cast(round(o_totalprice*100) AS BIGINT) AS cents,
         0::BIGINT AS version, 'U' AS op FROM orders),
log AS (
  SELECT * FROM base
  UNION ALL SELECT k, cents + 100000, 1::BIGINT, 'U' FROM base WHERE k % 7 = 0
  UNION ALL SELECT -(k+1), cents, 1::BIGINT, 'I' FROM base WHERE k % 13 = 0
  UNION ALL SELECT k, 0::BIGINT, 2::BIGINT, 'D' FROM base WHERE k % 11 = 0),
win AS (
  SELECT k, cents, version, op,
         row_number() OVER (PARTITION BY k ORDER BY version DESC) AS rn
  FROM log)
SELECT k AS o_orderkey, cents, version FROM win WHERE rn = 1 AND op <> 'D'
"""


# =====================================================================
# Declarative expectation audit (rule battery over orders)
# =====================================================================

_EPOCH_US_2000 = 946_684_800_000_000  # 2000-01-01T00:00:00Z


def _rules_partial(batch: pa.Table) -> pa.Table:
    n = batch.num_rows
    price = batch.column("o_totalprice")
    status = batch.column("o_orderstatus")
    prio = batch.column("o_orderpriority")
    us = pc.cast(batch.column("o_orderdate"), pa.int64())
    fails = {
        "totalprice_positive": pc.sum(
            pc.cast(pc.invert(pc.greater(price, 0.0)), pa.int64())
        ).as_py()
        or 0,
        "totalprice_ceiling": pc.sum(
            pc.cast(pc.greater(price, 400_000.0), pa.int64())
        ).as_py()
        or 0,
        "date_before_2000": pc.sum(
            pc.cast(pc.greater_equal(us, _EPOCH_US_2000), pa.int64())
        ).as_py()
        or 0,
        "status_in_domain": pc.sum(
            pc.cast(pc.invert(pc.is_in(status, value_set=pa.array(["O", "F", "P"]))),
                    pa.int64())
        ).as_py()
        or 0,
        "priority_format": pc.sum(
            pc.cast(pc.invert(pc.match_substring_regex(prio, r"^[1-5]-")), pa.int64())
        ).as_py()
        or 0,
    }
    return pa.table(
        {
            "rule": pa.array(list(fails), pa.string()),
            "violations": pa.array(list(fails.values()), pa.int64()),
            "n_checked": pa.array([n] * len(fails), pa.int64()),
        }
    )


def q_validate_rules(sf_dir: str):
    """Great-Expectations-style declarative audit: the whole rule
    battery evaluates as Arrow boolean kernels per batch and reduces
    to one 5-row int64 partial per batch — map-only over the fact
    scan, constant-size groupby to merge."""
    from ray.data.aggregate import Sum

    ds = _read(
        sf_dir,
        "orders",
        ["o_totalprice", "o_orderstatus", "o_orderpriority", "o_orderdate"],
    )
    return (
        ds.map_batches(_rules_partial, batch_format="pyarrow")
        .groupby("rule")
        .aggregate(
            Sum("violations", alias_name="violations"),
            Sum("n_checked", alias_name="n_checked"),
        )
    )


SQL_VALIDATE = """
SELECT rule, violations, n_checked FROM (
  SELECT 'totalprice_positive' AS rule,
         cast(count_if(NOT (o_totalprice > 0)) AS BIGINT) AS violations,
         cast(count(*) AS BIGINT) AS n_checked FROM orders
  UNION ALL
  SELECT 'totalprice_ceiling', cast(count_if(o_totalprice > 400000) AS BIGINT),
         cast(count(*) AS BIGINT) FROM orders
  UNION ALL
  SELECT 'date_before_2000',
         cast(count_if(o_orderdate >= TIMESTAMP '2000-01-01') AS BIGINT),
         cast(count(*) AS BIGINT) FROM orders
  UNION ALL
  SELECT 'status_in_domain',
         cast(count_if(o_orderstatus NOT IN ('O','F','P')) AS BIGINT),
         cast(count(*) AS BIGINT) FROM orders
  UNION ALL
  SELECT 'priority_format',
         cast(count_if(NOT regexp_matches(o_orderpriority, '^[1-5]-')) AS BIGINT),
         cast(count(*) AS BIGINT) FROM orders
)
"""


# =====================================================================
# Byte-pair counting (one BPE-training merge round)
# =====================================================================

_BPE_TOPK = 20


def _bpe_partial(batch: pa.Table) -> pa.Table:
    texts = batch.column("text").to_numpy(zero_copy_only=False)
    # C-level join + encode; NUL (0) separates documents so no pair
    # crosses a doc boundary (0 is masked below, as is ' ').
    b = np.frombuffer("\x00".join(texts.tolist()).encode(), np.uint8)
    if len(b) < 2:
        return pa.table(
            {"pair_id": pa.array([], pa.int64()), "n": pa.array([], pa.int64())}
        )
    pairs = b[:-1].astype(np.int64) * 256 + b[1:]
    keep = (b[:-1] != 32) & (b[1:] != 32) & (b[:-1] != 0) & (b[1:] != 0)
    counts = np.bincount(pairs[keep], minlength=65536)
    nz = np.flatnonzero(counts)
    return pa.table(
        {
            "pair_id": pa.array(nz, pa.int64()),
            "n": pa.array(counts[nz], pa.int64()),
        }
    )


def q_bpe_top_pairs(sf_dir: str):
    """One merge round of byte-level BPE tokenizer training: histogram
    adjacent byte pairs corpus-wide and pick the top-20 by
    (count desc, pair asc). Per-batch ``np.bincount`` partials are
    bounded at 65,536 rows regardless of corpus size, so the exchange
    and the final pick are O(1) in the input — the canonical "big scan,
    tiny state" reduction. Byte == char on this ASCII corpus (the SQL
    twin is char-based); real BPE is byte-level anyway."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["text"])
    agg = (
        ds.map_batches(_bpe_partial, batch_format="pyarrow")
        .groupby("pair_id")
        .aggregate(Sum("n", alias_name="n"))
        .to_pandas()  # bounded by the 65,536 pair-id space, not the input
    )
    pid = agg["pair_id"].to_numpy(np.int64)
    pair = np.char.add(
        (pid // 256).astype(np.uint32).view("U1"),
        (pid % 256).astype(np.uint32).view("U1"),
    )
    out = pd.DataFrame({"pair": pair, "n": agg["n"].to_numpy(np.int64)})
    out = out.sort_values(["n", "pair"], ascending=[False, True], kind="mergesort")
    return out.head(_BPE_TOPK).reset_index(drop=True)


SQL_BPE = f"""
WITH pos AS (
  SELECT substr(text, i, 2) AS pair
  FROM (SELECT text, unnest(range(1, length(text))) AS i FROM documents)
)
SELECT pair, cast(count(*) AS BIGINT) AS n
FROM pos WHERE NOT contains(pair, ' ')
GROUP BY pair ORDER BY n DESC, pair LIMIT {_BPE_TOPK}
"""


# =====================================================================
# Market-basket pair mining (frequent-itemset support counting)
# =====================================================================

_BASKET_SHARDS = 64
_PAIR_MINSUP = 2


def _basket_shard(batch: pa.Table) -> pa.Table:
    k = batch.column("l_orderkey")
    return pa.table(
        {
            "shard": pc.bit_wise_and(k, _BASKET_SHARDS - 1),
            "k": k,
            "part": pc.cast(batch.column("l_partkey"), pa.int64()),
        }
    )


def _pairs_within_groups(order: np.ndarray, part: np.ndarray):
    """All (a < b) part pairs within each order, by pure index
    arithmetic: element at local index ``li`` of a basket of size ``c``
    pairs with the ``c - li - 1`` elements after it. ``order``/``part``
    must be lex-sorted and (order, part)-distinct."""
    n = len(order)
    if n == 0:
        return np.empty(0, np.int64)
    starts = np.flatnonzero(np.r_[True, order[1:] != order[:-1]])
    counts = np.diff(np.r_[starts, n])
    li = np.arange(n) - np.repeat(starts, counts)
    reps = np.repeat(counts, counts) - li - 1
    a_idx = np.repeat(np.arange(n), reps)
    block = np.r_[0, np.cumsum(reps)[:-1]]
    off = np.arange(int(reps.sum())) - np.repeat(block, reps)
    b_idx = a_idx + 1 + off
    return part[a_idx] * (np.int64(1) << 32) + part[b_idx]


_PAIR_SHARDS = 256


def _basket_pairs(g: pd.DataFrame) -> pd.DataFrame:
    d = g[["k", "part"]].drop_duplicates().sort_values(["k", "part"])
    codes = _pairs_within_groups(
        d["k"].to_numpy(np.int64), d["part"].to_numpy(np.int64)
    )
    uniq, cnt = np.unique(codes, return_counts=True)
    return pd.DataFrame(
        {
            # second exchange keys on a BOUNDED pair shard, not the
            # ~N-cardinality pair id itself: Ray's hash aggregate
            # degrades on high-cardinality keys (measured 39 s vs <2 s
            # at sf0.01), whereas a 256-way shard + C-level pandas
            # merge per shard is the repo's standard idiom
            # (reconcile_orders/_rec_shard_classify)
            "pshard": uniq & (_PAIR_SHARDS - 1),
            "pair": uniq,
            "n": cnt.astype(np.int64),
        }
    )


def _pair_merge_decode(g: pd.DataFrame) -> pd.DataFrame:
    # all partials of a pair co-locate in its shard: C-level sum,
    # support filter, then vectorized (a, b) unpack
    s = g.groupby("pair")["n"].sum()
    s = s[s >= _PAIR_MINSUP]
    pair = s.index.to_numpy(np.int64)
    return pd.DataFrame(
        {
            "part_a": pair >> 32,
            "part_b": pair & ((1 << 32) - 1),
            "n_orders": s.to_numpy(np.int64),
        }
    )


def q_itemset_pairs(sf_dir: str):
    """Frequent-itemset pair support (market-basket co-occurrence):
    one order-shard exchange co-locates baskets, pairs are enumerated
    with np.repeat index arithmetic (no per-basket Python loop) and
    pre-counted per shard, then the much smaller (pshard, pair, n)
    table takes the second exchange — keyed on a BOUNDED 256-way pair
    shard, with the per-pair merge + support filter as a C-level
    pandas pass inside the shard (high-cardinality groupby keys
    degrade the hash aggregate; see _basket_pairs). Pair ids pack
    (a, b) into one int64 (a << 32 | b), decoded vectorized at the
    end."""
    ds = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])
    return (
        ds.map_batches(_basket_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_basket_pairs, batch_format="pandas")
        .groupby("pshard")
        .map_groups(_pair_merge_decode, batch_format="pandas")
    )


SQL_ITEMSET = f"""
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem)
SELECT cast(a.l_partkey AS BIGINT) AS part_a,
       cast(b.l_partkey AS BIGINT) AS part_b,
       cast(count(*) AS BIGINT) AS n_orders
FROM d a JOIN d b ON a.l_orderkey = b.l_orderkey
                 AND a.l_partkey < b.l_partkey
GROUP BY 1, 2 HAVING count(*) >= {_PAIR_MINSUP}
"""


# =====================================================================
# Association rules (Agrawal et al. 1993: confidence + lift)
# =====================================================================


def q_assoc_rules(sf_dir: str):
    """Association rules from the frequent pairs of ``itemset_pairs``:
    every frequent unordered pair {a, b} yields the two directed
    rules a→b and b→a with EXACT integer read-outs
    conf_e6 = e6(n_ab / n_ante) and lift_e6 = e6(N·n_ab /(n_a·n_b))
    (shared half-away rule; lift is symmetric, confidence is not —
    that asymmetry is why the rule step exists at all).  Output:
    (antecedent, consequent, n_ab, n_ante, conf_e6, lift_e6).

    Shape: reuses itemset_pairs' two bounded exchanges for the pair
    supports, adds ONE bounded per-part basket-count exchange
    (distinct orders per part), broadcasts the part→count dict
    (bounded by |parts|, the dimension not the fact table) and maps
    over the frequent-pair stream — rules never collect on the
    driver."""
    import ray

    # distinct orders per part: shard by ORDER so each basket lands
    # whole in one group (the itemset_pairs co-location), dedupe
    # (o, p) exactly inside the shard, then fold the per-shard
    # (p, n) partials on the DRIVER — |parts| is a bounded dimension
    # (the exchange discipline).  Measured at sf0.1: driver fold
    # 3.7 s vs 32 s for a groupby(p) Sum (the 20k-key hash-aggregate
    # degradation, same lesson as theta_join_cdf) vs 20+ s for the
    # original (o, p)-keyed exact-distinct aggregate
    li = _read(sf_dir, "lineitem", ["l_orderkey", "l_partkey"])

    def _shard(t: pa.Table) -> pa.Table:
        df = pd.DataFrame(
            {
                "o": t.column("l_orderkey").to_numpy(zero_copy_only=False),
                "p": t.column("l_partkey").to_numpy(zero_copy_only=False),
            }
        ).drop_duplicates()
        return pa.table(
            {
                "shard": pa.array(
                    df["o"].to_numpy(np.int64) & 63, pa.int64()
                ),
                "o": pa.array(df["o"].to_numpy(np.int64)),
                "p": pa.array(df["p"].to_numpy(np.int64)),
            }
        )

    def _count(g: pd.DataFrame) -> pd.DataFrame:
        c = (
            g.drop_duplicates(["o", "p"])
            .groupby("p", sort=False)
            .size()
            .reset_index(name="n")
        )
        return pd.DataFrame(
            {
                "p": c["p"].to_numpy(np.int64),
                "n": c["n"].to_numpy(np.int64),
            }
        )

    parts_ds = (
        li.map_batches(_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_count, batch_format="pandas")
    )
    counts: dict[int, int] = {}
    for t in parts_ds.iter_batches(batch_format="pyarrow", batch_size=None):
        for p, n in zip(t.column("p").to_pylist(), t.column("n").to_pylist()):
            counts[int(p)] = counts.get(int(p), 0) + int(n)
    n_orders = int(
        _read(sf_dir, "orders", ["o_orderkey"]).count()
    )
    ref = ray.put(counts)

    def _rules(t: pa.Table, n_tot=n_orders) -> pa.Table:
        cnt = ray.get(ref)
        a = t.column("part_a").to_pylist()
        b = t.column("part_b").to_pylist()
        nab = t.column("n_orders").to_pylist()
        ante, cons, n_ab, n_ante, conf, lift = [], [], [], [], [], []
        for x, y, n in zip(a, b, nab):
            nx, ny = cnt[x], cnt[y]
            l_e6 = (2_000_000 * n_tot * n + nx * ny) // (2 * nx * ny)
            for s, t_, ns in ((x, y, nx), (y, x, ny)):
                ante.append(s)
                cons.append(t_)
                n_ab.append(n)
                n_ante.append(ns)
                conf.append((2_000_000 * n + ns) // (2 * ns))
                lift.append(l_e6)
        return pa.table(
            {
                "antecedent": pa.array(ante, pa.int64()),
                "consequent": pa.array(cons, pa.int64()),
                "n_ab": pa.array(n_ab, pa.int64()),
                "n_ante": pa.array(n_ante, pa.int64()),
                "conf_e6": pa.array(conf, pa.int64()),
                "lift_e6": pa.array(lift, pa.int64()),
            }
        )

    return q_itemset_pairs(sf_dir).map_batches(
        _rules, batch_format="pyarrow"
    )


SQL_ASSOC_RULES = f"""
WITH d AS (SELECT DISTINCT l_orderkey, l_partkey FROM lineitem),
pc2 AS (SELECT l_partkey AS p, cast(count(*) AS BIGINT) AS n
        FROM d GROUP BY 1),
nt AS (SELECT cast(count(*) AS BIGINT) AS n FROM orders),
pairs AS (
  SELECT a.l_partkey AS pa2, b.l_partkey AS pb,
         cast(count(*) AS BIGINT) AS n_ab
  FROM d a JOIN d b ON a.l_orderkey = b.l_orderkey
                   AND a.l_partkey < b.l_partkey
  GROUP BY 1, 2 HAVING count(*) >= {_PAIR_MINSUP}),
rules AS (
  SELECT pa2 AS antecedent, pb AS consequent, n_ab FROM pairs
  UNION ALL
  SELECT pb, pa2, n_ab FROM pairs)
SELECT r.antecedent, r.consequent, r.n_ab,
       ca.n AS n_ante,
       cast((2000000 * r.n_ab + ca.n) // (2 * ca.n) AS BIGINT) AS conf_e6,
       cast((2000000 * cast(nt.n AS HUGEINT) * r.n_ab
             + cast(ca.n AS HUGEINT) * cb.n)
            // (2 * cast(ca.n AS HUGEINT) * cb.n) AS BIGINT) AS lift_e6
FROM rules r
JOIN pc2 ca ON ca.p = r.antecedent
JOIN pc2 cb ON cb.p = r.consequent, nt
"""


# =====================================================================
# Z-order layout (Morton-curve clustering + per-tile pruning spans)
# =====================================================================

def _morton_lut() -> np.ndarray:
    """256-entry LUT spreading byte bits to even positions:
    bit i of x lands at bit 2i (y is the same LUT shifted left 1)."""
    v = np.arange(256, dtype=np.int64)
    out = np.zeros(256, np.int64)
    for i in range(8):
        out |= ((v >> i) & 1) << (2 * i)
    return out


_MORTON = _morton_lut()
_ZTILE_SHIFT = 6  # 1024 tiles of 16 z-codes = 8x8 (x, y) rectangles


def _z_partial(batch: pa.Table) -> pa.Table:
    x = (
        batch.column("o_custkey").to_numpy(zero_copy_only=False) % 256
    ).astype(np.int64)
    us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    y = ((us // _US_PER_DAY) % 256).astype(np.int64)
    tile = (_MORTON[x] | (_MORTON[y] << 1)) >> _ZTILE_SHIFT
    df = pd.DataFrame({"tile": tile, "x": x, "y": y})
    g = df.groupby("tile", sort=False).agg(
        n=("x", "size"),
        min_x=("x", "min"),
        max_x=("x", "max"),
        min_y=("y", "min"),
        max_y=("y", "max"),
    )
    return pa.table(
        {
            "tile": pa.array(g.index.to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "min_x": pa.array(g["min_x"].to_numpy(np.int64)),
            "max_x": pa.array(g["max_x"].to_numpy(np.int64)),
            "min_y": pa.array(g["min_y"].to_numpy(np.int64)),
            "max_y": pa.array(g["max_y"].to_numpy(np.int64)),
        }
    )


def q_zorder_layout(sf_dir: str):
    """Morton/z-order clustering audit: bucket (custkey, order day)
    to bytes, interleave bits via a 256-entry LUT (no per-row Python),
    tile by the top z bits, and report per-tile row counts + min/max
    spans of BOTH dimensions. Every tile's span is an 8×8 rectangle —
    the property that lets a range predicate on EITHER column prune
    ~15/16 of blocks after a z-order rewrite, vs pruning only the
    leading column under a plain sort. Map-only partials, one bounded
    groupby(tile)."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    return (
        ds.map_batches(_z_partial, batch_format="pyarrow")
        .groupby("tile")
        .aggregate(
            Sum("n", alias_name="n"),
            Min("min_x", alias_name="min_x"),
            Max("max_x", alias_name="max_x"),
            Min("min_y", alias_name="min_y"),
            Max("max_y", alias_name="max_y"),
        )
    )


SQL_ZORDER = f"""
WITH base AS (
  SELECT o_orderkey,
         cast(o_custkey % 256 AS BIGINT) AS x,
         cast(datediff('day', TIMESTAMP '1970-01-01', o_orderdate) % 256
              AS BIGINT) AS y
  FROM orders),
zed AS (
  SELECT o_orderkey, x, y,
         sum(((x >> i) & 1) * (1::BIGINT << (2*i)) +
             ((y >> i) & 1) * (1::BIGINT << (2*i+1))) AS z
  FROM base, range(0,8) t(i) GROUP BY o_orderkey, x, y)
SELECT cast(z // {1 << _ZTILE_SHIFT} AS BIGINT) AS tile,
       cast(count(*) AS BIGINT) AS n,
       min(x) AS min_x, max(x) AS max_x, min(y) AS min_y, max(y) AS max_y
FROM zed GROUP BY 1
"""


# =====================================================================
# Hilbert-curve layout (the locality-tighter sibling of z-order)
# =====================================================================

_HILBERT_ORDER = 8  #: 256 × 256 grid, d ∈ [0, 65536)


def hilbert_xy2d(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Vectorized Hilbert curve index (the classic iterative xy→d
    walk: per level, add the quadrant's sub-square offset
    s²·(3·rx XOR ry), then flip+swap the frame when the step leaves
    the curve's canonical orientation).  8 constant-trip levels of
    pure numpy int64 ops — no per-row Python.  Mirrored as a
    recursive CTE over the DISTINCT (x, y) grid in SQL_HILBERT."""
    x = x.astype(np.int64).copy()
    y = y.astype(np.int64).copy()
    d = np.zeros_like(x)
    s = 1 << (_HILBERT_ORDER - 1)
    while s > 0:
        rx = ((x & s) > 0).astype(np.int64)
        ry = ((y & s) > 0).astype(np.int64)
        d += s * s * ((3 * rx) ^ ry)
        # rotate: only where ry == 0; flip first where rx == 1
        flip = (ry == 0) & (rx == 1)
        xf = np.where(flip, s - 1 - x, x)
        yf = np.where(flip, s - 1 - y, y)
        swap = ry == 0
        x, y = np.where(swap, yf, xf), np.where(swap, xf, yf)
        s >>= 1
    return d


def _h_partial(batch: pa.Table) -> pa.Table:
    x = (
        batch.column("o_custkey").to_numpy(zero_copy_only=False) % 256
    ).astype(np.int64)
    us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
        zero_copy_only=False
    )
    y = ((us // _US_PER_DAY) % 256).astype(np.int64)
    tile = hilbert_xy2d(x, y) >> _ZTILE_SHIFT
    df = pd.DataFrame({"tile": tile, "x": x, "y": y})
    g = df.groupby("tile", sort=False).agg(
        n=("x", "size"),
        min_x=("x", "min"),
        max_x=("x", "max"),
        min_y=("y", "min"),
        max_y=("y", "max"),
    )
    return pa.table(
        {
            "tile": pa.array(g.index.to_numpy(np.int64)),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "min_x": pa.array(g["min_x"].to_numpy(np.int64)),
            "max_x": pa.array(g["max_x"].to_numpy(np.int64)),
            "min_y": pa.array(g["min_y"].to_numpy(np.int64)),
            "max_y": pa.array(g["max_y"].to_numpy(np.int64)),
        }
    )


def q_hilbert_layout(sf_dir: str):
    """Hilbert-curve clustering audit over the same (custkey%256,
    order-day%256) keys as ``zorder_layout`` — the Hilbert curve is
    the locality-tighter space-filling alternative (every pair of
    consecutive codes is grid-adjacent, so tile spans never jump the
    diagonal seams Morton tiles do).  Same shape: map-only per-batch
    tile census, one bounded ``groupby(tile)``; emitting the same
    schema as zorder_layout makes the two directly comparable in a
    pruning study.  The SQL twin replays the flip+swap walk as a
    recursive CTE over the DISTINCT (x, y) grid (≤ 65,536 rows × 8
    levels) and joins per-key counts back on."""
    from ray.data.aggregate import Max, Min, Sum

    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])
    return (
        ds.map_batches(_h_partial, batch_format="pyarrow")
        .groupby("tile")
        .aggregate(
            Sum("n", alias_name="n"),
            Min("min_x", alias_name="min_x"),
            Max("max_x", alias_name="max_x"),
            Min("min_y", alias_name="min_y"),
            Max("max_y", alias_name="max_y"),
        )
    )


SQL_HILBERT = f"""
WITH RECURSIVE base AS (
  SELECT cast(o_custkey % 256 AS BIGINT) AS x,
         cast(datediff('day', TIMESTAMP '1970-01-01', o_orderdate) % 256
              AS BIGINT) AS y,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1, 2),
pts AS (SELECT DISTINCT x, y FROM base),
walk(x0, y0, x, y, d, it) AS (
  SELECT x, y, x, y, 0::BIGINT, 0 FROM pts
  UNION ALL
  SELECT x0, y0,
    CASE WHEN (y & s) = 0
         THEN (CASE WHEN (x & s) > 0 THEN s - 1 - y ELSE y END)
         ELSE x END,
    CASE WHEN (y & s) = 0
         THEN (CASE WHEN (x & s) > 0 THEN s - 1 - x ELSE x END)
         ELSE y END,
    d + s * s * xor(3 * (CASE WHEN (x & s) > 0 THEN 1 ELSE 0 END),
                    (CASE WHEN (y & s) > 0 THEN 1 ELSE 0 END)),
    it + 1
  FROM (SELECT x0, y0, x, y, d, it,
               cast(128 >> it AS BIGINT) AS s
        FROM walk WHERE it < {_HILBERT_ORDER}) w),
hkey AS (SELECT x0 AS x, y0 AS y, d FROM walk WHERE it = {_HILBERT_ORDER})
SELECT cast(d // {1 << _ZTILE_SHIFT} AS BIGINT) AS tile,
       cast(sum(b.n) AS BIGINT) AS n,
       min(b.x) AS min_x, max(b.x) AS max_x,
       min(b.y) AS min_y, max(b.y) AS max_y
FROM base b JOIN hkey h ON h.x = b.x AND h.y = b.y
GROUP BY 1
"""


# =====================================================================
# Full outer join (completes the join family: inner/broadcast/semi/
# anti/right/asof/theta/stream already exist)
# =====================================================================

_FOJ_SHARDS = 64


def q_full_outer_join(sf_dir: str):
    """FULL OUTER JOIN of a filtered customer dimension (custkey
    % 3 == 0, so right-only rows exist) with per-customer order
    counts (TPC-H customers without orders supply the left-only
    rows).  Output: (custkey, acct_cents, n_orders, side) with
    side ∈ {both, left, right} and sentinels (−1 balance / 0 count)
    instead of NULLs so the value hash is type-stable.

    Shape: both inputs reduce BEFORE the exchange (orders
    pre-aggregate to per-batch (key, count) partials — the classic
    partial-aggregate-then-shuffle), then ONE shared key-shard
    exchange co-locates both tagged sides and each shard performs a
    vectorized pandas outer merge.  No driver materialization; the
    output streams.

    Contrast ``full_outer_daily`` (analytics.py), which full-outers
    two pre-aggregated DAILY series via the union + groupby-Max
    sentinel fold: that mechanism needs unique keys per side, while
    this shard-merge form is the general dimension ⟗ fact shape —
    the same logical-op / different-mechanism pairing as
    hash_join / broadcast_join / salted_join."""
    cust = _read(sf_dir, "customer", ["c_custkey", "c_acctbal"])
    orders = _read(sf_dir, "orders", ["o_custkey"])

    def _cust_side(t: pa.Table) -> pa.Table:
        k = t.column("c_custkey").to_numpy(zero_copy_only=False)
        keep = k % 3 == 0
        k = k[keep]
        cents = _i64_away(t.column("c_acctbal"), 100.0).to_numpy(
            zero_copy_only=False
        )[keep]
        return pa.table(
            {
                "shard": pa.array(k % _FOJ_SHARDS, pa.int64()),
                "k": pa.array(k, pa.int64()),
                "v": pa.array(cents, pa.int64()),
                "src": pa.array(["c"] * len(k), pa.string()),
            }
        )

    def _order_side(t: pa.Table) -> pa.Table:
        k = t.column("o_custkey").to_numpy(zero_copy_only=False)
        g = pd.Series(k).value_counts()
        kk = g.index.to_numpy(np.int64)
        return pa.table(
            {
                "shard": pa.array(kk % _FOJ_SHARDS, pa.int64()),
                "k": pa.array(kk, pa.int64()),
                "v": pa.array(g.to_numpy(np.int64)),
                "src": pa.array(["o"] * len(kk), pa.string()),
            }
        )

    def _merge(g: pd.DataFrame) -> pd.DataFrame:
        c = g[g["src"] == "c"][["k", "v"]].rename(columns={"v": "cents"})
        o = (
            g[g["src"] == "o"]
            .groupby("k", sort=False)["v"]
            .sum()
            .reset_index(name="n")
        )
        m = c.merge(o, on="k", how="outer")
        has_c = m["cents"].notna()
        has_o = m["n"].notna()
        side = np.where(has_c & has_o, "both", np.where(has_c, "left", "right"))
        return pd.DataFrame(
            {
                "custkey": m["k"].to_numpy(np.int64),
                "acct_cents": m["cents"].fillna(-1).to_numpy(np.int64),
                "n_orders": m["n"].fillna(0).to_numpy(np.int64),
                "side": pd.Series(side, dtype="string"),
            }
        )

    both = cust.map_batches(_cust_side, batch_format="pyarrow").union(
        orders.map_batches(_order_side, batch_format="pyarrow")
    )
    return both.groupby("shard").map_groups(_merge, batch_format="pandas")


SQL_FULL_OUTER_JOIN = """
WITH c AS (
  SELECT c_custkey AS k, cast(round(c_acctbal * 100) AS BIGINT) AS cents
  FROM customer WHERE c_custkey % 3 = 0),
o AS (SELECT o_custkey AS k, cast(count(*) AS BIGINT) AS n
      FROM orders GROUP BY 1)
SELECT coalesce(c.k, o.k) AS custkey,
       coalesce(c.cents, -1) AS acct_cents,
       coalesce(o.n, 0) AS n_orders,
       CASE WHEN c.k IS NOT NULL AND o.k IS NOT NULL THEN 'both'
            WHEN c.k IS NOT NULL THEN 'left' ELSE 'right' END AS side
FROM c FULL OUTER JOIN o ON c.k = o.k
"""


# =====================================================================
# Incremental view maintenance (delta-maintained aggregate)
# =====================================================================

def _ivm_partial(batch: pa.Table) -> pa.Table:
    """Base contribution + the NET per-key effect of the same CDC log
    q_upsert_snapshot applies, folded into (priority, dn, dcents)
    partials in one pass. Net effect per source key k:
    deleted (k%11==0) → the row vanishes: (-1, -cents) regardless of
    any update (the v2 tombstone wins LWW over the v1 update);
    else updated (k%7==0) → (0, +100000); insert spawn (k%13==0) →
    (+1, +cents) under the source row's priority (inserts are never
    deleted: tombstones are only generated for base keys)."""
    k = batch.column("o_orderkey").to_numpy(zero_copy_only=False)
    cents = _i64_away(batch.column("o_totalprice"), 100.0).to_numpy(
        zero_copy_only=False
    )
    dele = k % 11 == 0
    upd = (k % 7 == 0) & ~dele
    ins = k % 13 == 0
    dn = np.ones(len(k), np.int64)          # base count contribution
    dc = cents.copy()                        # base sum contribution
    dn += ins.astype(np.int64) - dele.astype(np.int64)
    dc += ins * cents - dele * cents + upd * 100_000
    df = pd.DataFrame(
        {"o_orderpriority": batch.column("o_orderpriority").to_numpy(
            zero_copy_only=False), "dn": dn, "dc": dc}
    )
    g = df.groupby("o_orderpriority", sort=False).sum()
    return pa.table(
        {
            "o_orderpriority": pa.array(g.index.to_numpy(object), pa.string()),
            "dn": pa.array(g["dn"].to_numpy(np.int64)),
            "dc": pa.array(g["dc"].to_numpy(np.int64)),
        }
    )


def q_ivm_priority_totals(sf_dir: str):
    """Incremental view maintenance: keep ``priority → (count, sum)``
    current under the CDC change log WITHOUT re-aggregating the merged
    snapshot. Each batch folds the log's net per-key effect into the
    base contribution in the same scan, so the maintained view costs
    one map-only pass + a constant-size groupby — the 100 TB point is
    that only the (tiny) delta and the stored aggregate move, never a
    second full-table shuffle. Oracle recomputes from scratch over the
    merged snapshot, proving maintained == recomputed."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "orders",
               ["o_orderkey", "o_totalprice", "o_orderpriority"])
    return (
        ds.map_batches(_ivm_partial, batch_format="pyarrow")
        .groupby("o_orderpriority")
        .aggregate(Sum("dn", alias_name="n_rows"),
                   Sum("dc", alias_name="cents"))
    )


SQL_IVM = """
WITH base AS (
  SELECT o_orderkey AS k, cast(round(o_totalprice*100) AS BIGINT) AS cents,
         o_orderpriority AS prio, 0::BIGINT AS version, 'U' AS op FROM orders),
log AS (
  SELECT * FROM base
  UNION ALL SELECT k, cents + 100000, prio, 1::BIGINT, 'U' FROM base
    WHERE k % 7 = 0
  UNION ALL SELECT -(k+1), cents, prio, 1::BIGINT, 'I' FROM base
    WHERE k % 13 = 0
  UNION ALL SELECT k, 0::BIGINT, prio, 2::BIGINT, 'D' FROM base
    WHERE k % 11 = 0),
win AS (
  SELECT k, cents, prio, op,
         row_number() OVER (PARTITION BY k ORDER BY version DESC) AS rn
  FROM log),
snap AS (SELECT * FROM win WHERE rn = 1 AND op <> 'D')
SELECT prio AS o_orderpriority, cast(count(*) AS BIGINT) AS n_rows,
       cast(sum(cents) AS BIGINT) AS cents
FROM snap GROUP BY 1
"""


# =====================================================================
# CSV source equivalence (reader-surface coverage)
# =====================================================================

def _csv_twin(sf_dir: str) -> str:
    """Deterministic one-time CSV materialization of ``documents``
    (DuckDB COPY, atomic rename) so the query exercises
    ``ray.data.read_csv`` on a real comma-quoted file."""
    import os

    import duckdb

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    path = f"/tmp/weakscraper_oracles/csv-documents-{tag}.csv"
    if not os.path.exists(path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        tmp = path + ".tmp"
        duckdb.connect().execute(
            f"COPY (SELECT * FROM read_parquet('{sf_dir}/documents.parquet') "
            f"ORDER BY doc_id) TO '{tmp}' (HEADER, DELIMITER ',')"
        )
        os.replace(tmp, path)
    return path


def _csv_agg(batch: pa.Table) -> pa.Table:
    df = pd.DataFrame(
        {
            "lang": batch.column("lang").to_numpy(zero_copy_only=False),
            "chars": pc.utf8_length(
                batch.column("text")
            ).to_numpy(zero_copy_only=False).astype(np.int64),
        }
    )
    g = df.groupby("lang", sort=False).agg(n=("chars", "size"),
                                           s=("chars", "sum"))
    return pa.table(
        {
            "lang": pa.array(g.index.to_numpy(object), pa.string()),
            "n": pa.array(g["n"].to_numpy(np.int64)),
            "s": pa.array(g["s"].to_numpy(np.int64)),
        }
    )


def q_csv_source(sf_dir: str):
    """Reader-surface equivalence: the same corpus ingested through
    ``ray.data.read_csv`` (schema inference + quote handling) must
    aggregate identically to the parquet path — text length is
    recomputed post-read so the text column's round-trip is what's
    actually being checked, not just row counts."""
    import ray.data

    ds = ray.data.read_csv(_csv_twin(sf_dir))
    from ray.data.aggregate import Sum

    return (
        ds.map_batches(_csv_agg, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n_docs"),
                   Sum("s", alias_name="sum_chars"))
    )


SQL_CSV_SOURCE = """
SELECT lang, cast(count(*) AS BIGINT) AS n_docs,
       cast(sum(length(text)) AS BIGINT) AS sum_chars
FROM documents GROUP BY lang
"""


# =====================================================================
# Custom binary-framed source (length-prefixed records)
# =====================================================================

_BIN_SHARDS = 8


def _bin_twin(sf_dir: str) -> str:
    """One-time materialization of ``documents`` as 8 length-prefixed
    binary shard files (frame = i64 doc_id · u32 lang_len · lang ·
    u32 text_len · text) — the TFRecord-ish framing every custom
    ingest eventually meets. Shard = doc_id % 8 so the read
    parallelizes; atomic per-file rename + _SUCCESS marker."""
    import os
    import struct

    tag = os.path.basename(os.path.normpath(sf_dir)) or "sf"
    d = f"/tmp/weakscraper_oracles/bin-documents-{tag}"
    marker = os.path.join(d, "_SUCCESS")
    if os.path.exists(marker):
        return d
    os.makedirs(d, exist_ok=True)
    t = pq.read_table(
        _p(sf_dir, "documents"), columns=["doc_id", "lang", "text"]
    ).sort_by("doc_id")
    ids = t.column("doc_id").to_pylist()
    langs = t.column("lang").to_pylist()
    texts = t.column("text").to_pylist()
    bufs = [bytearray() for _ in range(_BIN_SHARDS)]
    for i, lang, text in zip(ids, langs, texts):
        lb = (lang or "").encode()
        tb = (text or "").encode()
        b = bufs[int(i) % _BIN_SHARDS]
        b += struct.pack("<qI", int(i), len(lb))
        b += lb
        b += struct.pack("<I", len(tb))
        b += tb
    for s, b in enumerate(bufs):
        tmp = os.path.join(d, f"shard-{s:02d}.bin.tmp")
        with open(tmp, "wb") as f:
            f.write(bytes(b))
        os.replace(tmp, os.path.join(d, f"shard-{s:02d}.bin"))
    with open(marker, "w") as f:
        f.write("ok")
    return d


def q_binary_source(sf_dir: str):
    """Source-surface equivalence for a CUSTOM binary format:
    ``ray.data.read_binary_files`` over the length-prefixed shards
    (one block per file), a per-file frame-parse ``map_batches`` (the
    per-record loop is inherent to custom framing — this is the
    deserializer, not a hot transform), and the same per-lang
    aggregate the CSV/JSONL/parquet paths produce.  Completes the
    source matrix: parquet, JSONL, CSV, hive-partitioned,
    schema-evolved, and now opaque binary framing."""
    import struct

    import ray.data

    d = _bin_twin(sf_dir)
    ds = ray.data.read_binary_files(d, file_extensions=["bin"])

    def _parse(batch: pa.Table) -> pa.Table:
        langs, chars = [], []
        for blob in batch.column("bytes").to_pylist():
            off, n = 0, len(blob)
            while off < n:
                (_doc_id, lang_len) = struct.unpack_from("<qI", blob, off)
                off += 12
                lang = blob[off : off + lang_len].decode()
                off += lang_len
                (text_len,) = struct.unpack_from("<I", blob, off)
                off += 4
                text = blob[off : off + text_len].decode()
                off += text_len
                langs.append(lang)
                chars.append(len(text))
        g = (
            pd.DataFrame({"lang": langs, "chars": np.array(chars, np.int64)})
            .groupby("lang", sort=False)
            .agg(n=("chars", "size"), s=("chars", "sum"))
            .reset_index()
        )
        return pa.table(
            {
                "lang": pa.array(g["lang"]),
                "n": pa.array(g["n"].to_numpy(np.int64)),
                "s": pa.array(g["s"].to_numpy(np.int64)),
            }
        )

    from ray.data.aggregate import Sum

    return (
        ds.map_batches(_parse, batch_format="pyarrow")
        .groupby("lang")
        .aggregate(Sum("n", alias_name="n_docs"), Sum("s", alias_name="sum_chars"))
    )


SQL_BINARY_SOURCE = """
SELECT lang, cast(count(*) AS BIGINT) AS n_docs,
       cast(sum(length(coalesce(text, ''))) AS BIGINT) AS sum_chars
FROM documents GROUP BY lang
"""


# =====================================================================
# Small-file compaction planning (bin packing by running size)
# =====================================================================

_COMPACT_TARGET = 16_384  # pseudo-bytes per merge bin at sf scale


def _fsize_partial(batch: pa.Table) -> pa.Table:
    df = pd.DataFrame(
        {
            "lang": batch.column("lang").to_numpy(zero_copy_only=False),
            "source": batch.column("source").to_numpy(zero_copy_only=False),
            "b": batch.column("n_chars").to_numpy(zero_copy_only=False),
        }
    )
    g = df.groupby(["lang", "source"], sort=False)["b"].sum().reset_index()
    return pa.table(
        {
            "lang": pa.array(g["lang"].to_numpy(object), pa.string()),
            "source": pa.array(g["source"].to_numpy(object), pa.string()),
            "b": pa.array(g["b"].to_numpy(np.int64)),
        }
    )


def q_compaction_plan(sf_dir: str):
    """The small-files problem: plan which "files" (one per
    (lang, source) shard here) merge into which compaction bin.
    Sizes come from a distributed per-batch pre-aggregated sum — that
    is the 100 TB-heavy part; the PLAN itself runs over one row per
    file (tiny at any scale, inherently a driver/coordinator step:
    size-descending order, running-sum-before // target = bin id —
    the sequential-fill rule, deterministic and SQL-mirrorable, unlike
    first-fit-decreasing)."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "documents", ["lang", "source", "n_chars"])
    fs = (
        ds.map_batches(_fsize_partial, batch_format="pyarrow")
        .groupby(["lang", "source"])
        .aggregate(Sum("b", alias_name="bytes"))
        .to_pandas()  # one row per file — bounded metadata, not data
        .sort_values(["bytes", "lang", "source"],
                     ascending=[False, True, True], kind="mergesort")
        .reset_index(drop=True)
    )
    b = fs["bytes"].to_numpy(np.int64)
    cs_before = np.concatenate(([0], np.cumsum(b)[:-1]))
    fs["bin"] = cs_before // _COMPACT_TARGET  # non-negative: trunc == floor
    return fs[["lang", "source", "bytes", "bin"]]


SQL_COMPACTION = f"""
WITH fs AS (
  SELECT lang, source, cast(sum(n_chars) AS BIGINT) AS bytes
  FROM documents GROUP BY 1, 2),
w AS (
  SELECT lang, source, bytes,
         coalesce(sum(bytes) OVER (ORDER BY bytes DESC, lang, source
                     ROWS BETWEEN UNBOUNDED PRECEDING AND 1 PRECEDING),
                  0) AS cs
  FROM fs)
SELECT lang, source, bytes,
       cast(cs // {_COMPACT_TARGET} AS BIGINT) AS bin
FROM w
"""


# =====================================================================
# Right outer join (dim side preserved against a streamed fact side)
# =====================================================================

def q_right_join(sf_dir: str):
    """RIGHT OUTER join with the PRESERVED side being the small dim
    (high-balance customers) and the streamed side the fact table:
    the fact side probes a broadcast sorted key array (vectorized
    searchsorted, one ship of the dim), while per-batch HIT-KEY
    partials roll up to a bounded distinct set; dim rows that no probe
    hit are appended with the -1 sentinel key. This is the distributed
    decomposition of a right join when the preserved side fits in the
    object store: stream-side probe + dim-side anti from the hit-set
    roll-up — no all-to-all shuffle of the fact table.
    The fact side is restricted to big-ticket orders so the preserved
    side really has non-matches (every customer has SOME order in this
    data, which would leave the anti branch vacuously untested).
    Sentinel (-1, not NULL) on both sides keeps the driver value-hash
    representation-stable (same rationale as q_left_join)."""
    import pyarrow.parquet as pq
    import ray
    import ray.data

    from ray.data.aggregate import Count

    cust = pq.read_table(
        f"{sf_dir}/customer.parquet", columns=["c_custkey", "c_name", "c_acctbal"]
    )
    cust = cust.filter(pc.greater(cust.column("c_acctbal"), 5000.0))
    keys = np.asarray(cust.column("c_custkey").to_pylist(), dtype=np.int64)
    names = np.asarray(cust.column("c_name").to_pylist(), dtype=object)
    order = np.argsort(keys)
    keys, names = keys[order], names[order]
    ref = ray.put({"keys": keys, "names": names})

    class _ProbeMatch:
        def __init__(self, dim_ref):
            d = ray.get(dim_ref) if isinstance(dim_ref, ray.ObjectRef) else dim_ref
            self.keys, self.names = d["keys"], d["names"]

        def __call__(self, batch: pa.Table) -> pa.Table:
            batch = batch.filter(
                pc.greater(batch.column("o_totalprice"), 300_000.0)
            )
            probe = batch.column("o_custkey").to_numpy(zero_copy_only=False)
            pos = np.clip(np.searchsorted(self.keys, probe), 0, len(self.keys) - 1)
            hit = self.keys[pos] == probe
            return pa.table(
                {
                    "o_orderkey": batch.column("o_orderkey").filter(
                        pa.array(hit)
                    ),
                    "c_name": pa.array(self.names[pos][hit], pa.string()),
                    "ckey": pa.array(self.keys[pos][hit], pa.int64()),
                }
            )

    ds = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"])
    matched = ds.map_batches(
        _ProbeMatch, fn_constructor_kwargs=dict(dim_ref=ref),
        batch_format="pyarrow", concurrency=(1, 2),
    ).materialize()  # consumed twice (hit roll-up + final union); without
    # this the probe re-executes — object-store blocks spill if large
    # bounded distinct hit-key set (≤ dim cardinality by construction)
    hits = (
        matched.select_columns(["ckey"])
        .groupby("ckey")
        .aggregate(Count(alias_name="_n"))
        .to_pandas()["ckey"]
        .to_numpy(np.int64)
    )
    unmatched = np.setdiff1d(keys, hits, assume_unique=True)
    miss_idx = np.searchsorted(keys, unmatched)
    missing = ray.data.from_arrow(
        pa.table(
            {
                "o_orderkey": pa.array(
                    np.full(len(unmatched), -1, np.int64)
                ),
                "c_name": pa.array(names[miss_idx], pa.string()),
            }
        )
    )
    return matched.select_columns(["o_orderkey", "c_name"]).union(missing)


SQL_RIGHT_JOIN = """
SELECT coalesce(o.o_orderkey, -1) AS o_orderkey, c.c_name
FROM (SELECT * FROM orders WHERE o_totalprice > 300000.0) o
RIGHT JOIN (SELECT * FROM customer WHERE c_acctbal > 5000.0) c
        ON o.o_custkey = c.c_custkey
"""


# =====================================================================
# Incremental view maintenance for a JOIN view (delta-join expansion)
# =====================================================================

def q_ivm_join_delta(sf_dir: str):
    """IVM for the join view V = orders ⋈ customer: with inserts
    ΔO (new orders; every 13th key re-keyed to −(k+1), half of them
    referencing brand-new customers) and ΔC (one new customer
    −(c+1) per existing one, acctbal +5.00), the maintained delta is
    the standard expansion Δ(O⋈C) = ΔO⋈C ∪ O⋈ΔC ∪ ΔO⋈ΔC
    (Blakeley et al. 1986; every streaming-join engine's update rule).
    Here O⋈ΔC is STRUCTURALLY empty (existing orders cannot reference
    the new negative custkeys), so the computed terms are
    ΔO ⋈ (C ∪ ΔC) — one broadcast-map over the order stream; the full
    view is never recomputed.  The DuckDB oracle takes the OTHER
    definition — (O∪ΔO)⋈(C∪ΔC) EXCEPT O⋈C — so agreement checks the
    delta rule itself, not a shared formulation."""
    cust = pq.read_table(
        _p(sf_dir, "customer"), columns=["c_custkey", "c_acctbal"]
    )
    ck = cust.column("c_custkey").to_numpy(zero_copy_only=False).astype(np.int64)
    acct = _i64_away(cust.column("c_acctbal"), 100.0).to_numpy(
        zero_copy_only=False
    )
    # C ∪ ΔC as a dense lookup: broadcast once (customer ≪ orders)
    lut = {int(k): int(a) for k, a in zip(ck, acct)}
    lut.update({-(int(k) + 1): int(a) + 500 for k, a in zip(ck, acct)})
    import ray as _ray

    lut_ref = _ray.put(lut)

    def _delta(batch: pa.Table) -> pa.Table:
        k = batch.column("o_orderkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        cust_k = batch.column("o_custkey").to_numpy(zero_copy_only=False).astype(
            np.int64
        )
        cents = _i64_away(batch.column("o_totalprice"), 100.0).to_numpy(
            zero_copy_only=False
        )
        ins = k % 13 == 0
        nk = -(k[ins] + 1)
        nck = np.where(k[ins] % 26 == 0, -(cust_k[ins] + 1), cust_k[ins])
        m = _ray.get(lut_ref)
        av = np.array([m[int(c)] for c in nck], dtype=np.int64)
        return pa.table(
            {
                "o_orderkey": pa.array(nk, pa.int64()),
                "o_custkey": pa.array(nck, pa.int64()),
                "order_cents": pa.array(cents[ins], pa.int64()),
                "acct_cents": pa.array(av, pa.int64()),
            }
        )

    return _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_totalprice"]).map_batches(
        _delta, batch_format="pyarrow"
    )


SQL_IVM_JOIN_DELTA = """
WITH c0 AS (
  SELECT c_custkey AS ck,
         cast(round(c_acctbal * 100, 0) AS BIGINT) AS acct FROM customer),
dc AS (
  SELECT -(c_custkey + 1) AS ck,
         cast(round(c_acctbal * 100, 0) AS BIGINT) + 500 AS acct FROM customer),
o0 AS (
  SELECT o_orderkey AS ok, o_custkey AS ck,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents
  FROM orders WHERE o_orderkey % 13 <> 0),
do_ AS (
  SELECT -(o_orderkey + 1) AS ok,
         CASE WHEN o_orderkey % 26 = 0 THEN -(o_custkey + 1)
              ELSE o_custkey END AS ck,
         cast(round(o_totalprice * 100, 0) AS BIGINT) AS cents
  FROM orders WHERE o_orderkey % 13 = 0),
allv AS (
  SELECT o.ok, o.ck, o.cents, c.acct
  FROM (SELECT * FROM o0 UNION ALL SELECT * FROM do_) o
  JOIN (SELECT * FROM c0 UNION ALL SELECT * FROM dc) c ON c.ck = o.ck),
base AS (
  SELECT o.ok, o.ck, o.cents, c.acct
  FROM o0 o JOIN c0 c ON c.ck = o.ck),
delta AS (SELECT * FROM allv EXCEPT SELECT * FROM base)
SELECT ok AS o_orderkey, ck AS o_custkey, cents AS order_cents,
       acct AS acct_cents
FROM delta
"""


# =====================================================================
# Skew salting plan (hot-key split factors for the next shuffle)
# =====================================================================

_SALT_TARGET = 25  #: target max rows per (key, salt) partition slice
#: (sf-tier data: ~10% of users are heavy; 25 yields multi-salt factors)


def q_salt_plan(sf_dir: str):
    """Hot-key salting plan: per user_id row counts → every key whose
    count exceeds the per-slice target gets ``ceil(count/target)``
    salt splits — the planning pass that turns a measured key
    histogram into the shuffle's salt factors (the engine's own
    ordering-restore salt and ``salted_join`` consume exactly this
    shape).  Per-batch key partials; only over-target keys are
    emitted, so the plan is as small as the skew."""
    from ray.data.aggregate import Sum

    from .relational import _read

    def _partial(batch: pa.Table) -> pa.Table:
        u = batch.column("user_id").to_numpy(zero_copy_only=False).astype(np.int64)
        k, c = np.unique(u, return_counts=True)
        return pa.table(
            {"user_id": pa.array(k), "n": pa.array(c.astype(np.int64))}
        )

    agg = (
        _read(sf_dir, "events", ["user_id"])
        .map_batches(_partial, batch_format="pyarrow")
        .groupby("user_id")
        .aggregate(Sum("n", alias_name="n"))
    )

    def _plan(t: pa.Table) -> pa.Table:
        n = t.column("n").to_numpy().astype(np.int64)
        keep = n > _SALT_TARGET
        n = n[keep]
        return pa.table(
            {
                "user_id": pa.array(
                    t.column("user_id").to_numpy().astype(np.int64)[keep]
                ),
                "n_rows": pa.array(n),
                "n_salts": pa.array((n + _SALT_TARGET - 1) // _SALT_TARGET),
            }
        )

    return agg.map_batches(_plan, batch_format="pyarrow")


SQL_SALT_PLAN = f"""
WITH c AS (
  SELECT user_id, cast(count(*) AS BIGINT) AS n_rows
  FROM events GROUP BY user_id)
SELECT user_id, n_rows,
       cast((n_rows + {_SALT_TARGET} - 1) // {_SALT_TARGET} AS BIGINT)
           AS n_salts
FROM c WHERE n_rows > {_SALT_TARGET}
"""


# =====================================================================
# Rendezvous (highest-random-weight) placement audit
# =====================================================================

#: 16 synthetic placement nodes; per-node weights via the repo's
#: affine-hash idiom (cms/bootstrap constants, P = 2^31 − 1)
_HRW_NODES = 16
_HRW_P = 2_147_483_647
_HRW_A0, _HRW_AS = 2_654_435_761, 40_503
_HRW_B0, _HRW_BS = 7, 97


def q_rendezvous_assign(sf_dir: str):
    """Per-node load under rendezvous (highest-random-weight) hashing
    of ``user_id`` across 16 nodes — the decentralized placement rule
    (Thaler & Ravishankar 1998) behind consistent cache/shard
    assignment: every writer computes w(u, node) independently and
    picks the argmax, and removing a node only remaps that node's
    keys.  The weight is TWO rounds of the repo's affine hash with the
    per-node multiplier ``a = (A₀ + node·A_s) mod P``:
    ``w = ((u·a + b) mod P · a + b) mod P`` — the composed multiplier
    is ``a²``, which varies QUADRATICALLY with the node, so the 16
    weights are not an arithmetic progression in ``node`` (ONE affine
    round is: its argmax degenerates to a wrap pattern — measured all
    load on node 15 for small uids).  Expressible verbatim in SQL, so
    the assignment (argmax, ties to the smaller node) is hash-exact on
    both engines; measured load at 50k sequential uids: 16 nodes
    within ±2.5 % of uniform.  Companion of ``salt_plan`` (what to
    split) and ``key_skew`` (why): this is WHERE each key lands,
    summarized as per-node event counts and cent mass.

    Shape: the node is a pure function of ``user_id``, so assignment
    is one streaming map (an n×16 int64 argmax per batch);
    the only exchange is the 16-row per-node aggregate."""
    from ray.data.aggregate import Sum

    A = np.array(
        [(_HRW_A0 + nd * _HRW_AS) % _HRW_P for nd in range(_HRW_NODES)],
        dtype=np.int64,
    )
    B = np.array(
        [_HRW_B0 + nd * _HRW_BS for nd in range(_HRW_NODES)], dtype=np.int64
    )

    def _assign(batch: pa.Table) -> pa.Table:
        u = (
            batch.column("user_id").to_numpy(zero_copy_only=False)
            % _HRW_P
        )
        # (n, 16): operands < 2^31 → products < 2^62, no overflow
        v = (u[:, None] * A[None, :] + B[None, :]) % _HRW_P
        w = (v * A[None, :] + B[None, :]) % _HRW_P
        node = np.argmax(w, axis=1).astype(np.int64)  # first max = low node
        c = _i64_away(batch.column("value"), 100.0).to_numpy(
            zero_copy_only=False
        )
        uniq, inv = np.unique(node, return_inverse=True)
        return pa.table(
            {
                "node": pa.array(uniq, pa.int64()),
                "n_events": pa.array(
                    np.bincount(inv).astype(np.int64), pa.int64()
                ),
                "value_cents": pa.array(
                    np.bincount(inv, weights=c.astype(np.float64)).astype(
                        np.int64
                    ),
                    pa.int64(),
                ),
            }
        )

    return (
        _read(sf_dir, "events", ["user_id", "value"])
        .map_batches(_assign, batch_format="pyarrow")
        .groupby("node")
        .aggregate(
            Sum("n_events", alias_name="n_events"),
            Sum("value_cents", alias_name="value_cents"),
        )
    )


SQL_RENDEZVOUS = f"""
WITH nodes AS (
  SELECT cast(unnest(range(0, {_HRW_NODES})) AS BIGINT) AS node),
v AS (
  SELECT e.event_id,
         cast(round(e.value * 100, 0) AS BIGINT) AS c,
         n.node,
         (({_HRW_A0} + n.node * {_HRW_AS}) % {_HRW_P}) AS a,
         ({_HRW_B0} + n.node * {_HRW_BS}) AS b,
         ((e.user_id % {_HRW_P})
          * (({_HRW_A0} + n.node * {_HRW_AS}) % {_HRW_P})
          + {_HRW_B0} + n.node * {_HRW_BS}) % {_HRW_P} AS v1
  FROM events e CROSS JOIN nodes n),
w AS (
  SELECT event_id, c, node, (v1 * a + b) % {_HRW_P} AS wt FROM v),
a AS (
  SELECT event_id, c, node,
         row_number() OVER (PARTITION BY event_id
                            ORDER BY wt DESC, node) AS rk
  FROM w)
SELECT node, cast(count(*) AS BIGINT) AS n_events,
       cast(sum(c) AS BIGINT) AS value_cents
FROM a WHERE rk = 1 GROUP BY node
"""


# =====================================================================
# moran_i — spatial autocorrelation of the layout grid (pure integer)
# =====================================================================

_MORAN_DIM = 256  #: the zorder/hilbert (custkey%256, day%256) lattice


def q_moran_i(sf_dir: str):
    """Moran's I spatial autocorrelation (Moran 1950) of per-cell
    order counts over the SAME 256×256 (custkey%256, day%256) lattice
    the z-order/Hilbert layout audits use — the read-out that says
    whether load clusters spatially (I > 0 → neighboring cells load
    together, so range partitions skew; I ≈ −1/(N−1) → independent).
    Rook adjacency, empty cells count 0.  With N-scaled deviations
    z_i = N·x_i − S every product is an exact int, and

        I = N·(Σ_{adj pairs} 2·z_i·z_j) / (W·Σz_i²),   W = 2·#pairs

    is a PURE integer rational (HUGEINT numerators), read out at e9
    (I is tiny under independence) with the shared half-away rule —
    no double anywhere.  Output: one row ``(n_cells, w_sum, z2_sum,
    i_e9)``.  Shape: per-batch (x, y, n) partials fold into the
    bounded 65,536-cell grid on the driver; the neighbor sweep is two
    numpy shifted products."""
    ds = _read(sf_dir, "orders", ["o_custkey", "o_orderdate"])

    def _partial(batch: pa.Table) -> pa.Table:
        x = (
            batch.column("o_custkey").to_numpy(zero_copy_only=False)
            % _MORAN_DIM
        ).astype(np.int64)
        us = pc.cast(batch.column("o_orderdate"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        y = ((us // _US_PER_DAY) % _MORAN_DIM).astype(np.int64)
        g = (
            pd.DataFrame({"x": x, "y": y})
            .groupby(["x", "y"], sort=False)
            .size()
            .reset_index(name="n")
        )
        return pa.table(
            {
                "x": pa.array(g["x"].to_numpy(np.int64)),
                "y": pa.array(g["y"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
            }
        )

    grid = np.zeros((_MORAN_DIM, _MORAN_DIM), dtype=np.int64)
    for t in ds.map_batches(_partial, batch_format="pyarrow").iter_batches(
        batch_format="pyarrow", batch_size=None
    ):
        grid[
            t.column("x").to_numpy(zero_copy_only=False),
            t.column("y").to_numpy(zero_copy_only=False),
        ] += t.column("n").to_numpy(zero_copy_only=False)
    n_cells = _MORAN_DIM * _MORAN_DIM
    s = int(grid.sum())
    z = n_cells * grid - s  # int64: |z| ≤ N·max_cell + S
    u = int((z[:-1, :] * z[1:, :]).sum()) + int((z[:, :-1] * z[:, 1:]).sum())
    den = int((z.astype(object) * z).sum())
    w_sum = 2 * (2 * _MORAN_DIM * (_MORAN_DIM - 1))
    p = n_cells * 2 * u
    d = w_sum * den
    i_e9 = (
        (2_000_000_000 * p + d) // (2 * d)
        if p >= 0
        else -((2_000_000_000 * (-p) + d) // (2 * d))
    )
    return pa.table(
        {
            "n_cells": pa.array([n_cells], pa.int64()),
            "w_sum": pa.array([w_sum], pa.int64()),
            "z2_sum": pa.array([den], pa.int64()),
            "i_e9": pa.array([i_e9], pa.int64()),
        }
    )


SQL_MORAN = f"""
WITH o AS (
  SELECT o_custkey % {_MORAN_DIM} AS x,
         datediff('day', TIMESTAMP '1970-01-01', o_orderdate)
           % {_MORAN_DIM} AS y,
         cast(count(*) AS BIGINT) AS n
  FROM orders GROUP BY 1, 2),
grid AS (
  SELECT gx.x, gy.y, cast(coalesce(o.n, 0) AS BIGINT) AS n
  FROM range({_MORAN_DIM}) gx(x)
  CROSS JOIN range({_MORAN_DIM}) gy(y)
  LEFT JOIN o ON o.x = gx.x AND o.y = gy.y),
tot AS (SELECT cast(sum(n) AS BIGINT) AS s FROM grid),
z AS (SELECT x, y, cast({_MORAN_DIM * _MORAN_DIM} * n - tot.s AS BIGINT)
               AS z
      FROM grid, tot),
u AS (SELECT
  (SELECT cast(sum(cast(a.z AS HUGEINT) * b.z) AS HUGEINT)
   FROM z a JOIN z b ON b.x = a.x + 1 AND b.y = a.y)
  + (SELECT cast(sum(cast(a.z AS HUGEINT) * b.z) AS HUGEINT)
     FROM z a JOIN z b ON b.x = a.x AND b.y = a.y + 1) AS uu),
d AS (SELECT cast(sum(cast(z AS HUGEINT) * z) AS HUGEINT) AS dd FROM z),
f AS (SELECT uu, dd,
             cast({_MORAN_DIM * _MORAN_DIM} AS HUGEINT) * 2 * uu AS p,
             cast({2 * (2 * _MORAN_DIM * (_MORAN_DIM - 1))} AS HUGEINT)
               * dd AS dn
      FROM u, d)
SELECT cast({_MORAN_DIM * _MORAN_DIM} AS BIGINT) AS n_cells,
       cast({2 * (2 * _MORAN_DIM * (_MORAN_DIM - 1))} AS BIGINT) AS w_sum,
       cast(dd AS BIGINT) AS z2_sum,
       cast(CASE WHEN p >= 0 THEN (2000000000 * p + dn) // (2 * dn)
                 ELSE -((2000000000 * (-p) + dn) // (2 * dn))
            END AS BIGINT) AS i_e9
FROM f
"""


QUERIES = {
    "upsert_snapshot": q_upsert_snapshot,
    "rendezvous_assign": q_rendezvous_assign,
    "moran_i": q_moran_i,
    "salt_plan": q_salt_plan,
    "ivm_join_delta": q_ivm_join_delta,
    "binary_source": q_binary_source,
    "validate_rules": q_validate_rules,
    "bpe_top_pairs": q_bpe_top_pairs,
    "itemset_pairs": q_itemset_pairs,
    "zorder_layout": q_zorder_layout,
    "hilbert_layout": q_hilbert_layout,
    "full_outer_join": q_full_outer_join,
    "assoc_rules": q_assoc_rules,
    "ivm_priority_totals": q_ivm_priority_totals,
    "csv_source": q_csv_source,
    "compaction_plan": q_compaction_plan,
    "right_join": q_right_join,
}

ORACLE_SQL = {
    "moran_i": SQL_MORAN,
    "upsert_snapshot": SQL_UPSERT,
    "rendezvous_assign": SQL_RENDEZVOUS,
    "salt_plan": SQL_SALT_PLAN,
    "ivm_join_delta": SQL_IVM_JOIN_DELTA,
    "binary_source": SQL_BINARY_SOURCE,
    "validate_rules": SQL_VALIDATE,
    "bpe_top_pairs": SQL_BPE,
    "itemset_pairs": SQL_ITEMSET,
    "zorder_layout": SQL_ZORDER,
    "hilbert_layout": SQL_HILBERT,
    "full_outer_join": SQL_FULL_OUTER_JOIN,
    "assoc_rules": SQL_ASSOC_RULES,
    "ivm_priority_totals": SQL_IVM,
    "csv_source": SQL_CSV_SOURCE,
    "compaction_plan": SQL_COMPACTION,
    "right_join": SQL_RIGHT_JOIN,
}
