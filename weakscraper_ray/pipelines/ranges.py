"""Round-3 continuation #13: range / spatial-locality family — the
two range-query mechanisms a lakehouse layout engine needs, each a
``queries()`` entry with a DuckDB oracle:

- ``zorder_cells``      Morton (Z-order) curve indexing of a derived
                        2-D point set + a rectangle count per coarse
                        cell — the data-skipping layout idiom
                        (Delta/Iceberg Z-ORDER clustering)
- ``interval_overlap``  per-user count of overlapping activity
                        intervals — the interval self-join, resolved
                        with a sort-sweep identity instead of the
                        quadratic join the oracle runs

Exactness: Z-order bit interleaving is pure integer arithmetic
(each output bit an explicit shift-and-mask term, generated
identically into the SQL string); interval endpoints are int64
microseconds with a CONSTANT duration, which turns the overlap count
into an order-statistics identity (see ``q_interval_overlap``) —
no float, no RNG.

Scale shapes: zorder is map-only plus one exchange bounded by the
coarse-cell count (2^12); interval_overlap shards by ``user_id % 256``
and does ONE vectorized segment-searchsorted per shard — the pair set
itself never materializes anywhere (the oracle's self-join is the
thing the operator avoids).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _read

# ------------------------------------------------------------ Z-order

#: 2-D derived coordinates: 10 bits each from two multiplicative
#: hashes of event_id (the graph.py derived-input precedent).
_Z_BITS = 10
_Z_SIDE = 1 << _Z_BITS
_Z_KX = 2654435761  # Knuth multiplicative constants (public, TAOCP)
_Z_KY = 2246822519
#: coarse cell = z >> 8 (4096 cells); rectangle under audit
_Z_CELL_SHIFT = 8
_Z_RECT = (128, 383, 256, 767)  # x1, x2, y1, y2 inclusive


def _morton_expr_sql(xe: str, ye: str) -> str:
    """SQL for bit-interleave(x, y) — one explicit term per bit."""
    terms = []
    for i in range(_Z_BITS):
        # every term fully parenthesized: DuckDB's `+` binds tighter
        # than `<<`, so a bare chain of `a << k + b << k2` misparses
        terms.append(f"(((({xe}) >> {i}) & 1) << {2 * i})")
        terms.append(f"(((({ye}) >> {i}) & 1) << {2 * i + 1})")
    return " + ".join(terms)


def _morton_np(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    z = np.zeros(len(x), dtype=np.int64)
    for i in range(_Z_BITS):
        z |= ((x >> i) & 1) << (2 * i)
        z |= ((y >> i) & 1) << (2 * i + 1)
    return z


def q_zorder_cells(sf_dir: str):
    """Z-order (Morton) clustering audit: derive a 2-D point per event
    (x, y = two multiplicative hashes of ``event_id`` mod 1024),
    interleave bits into the Morton code, and report per COARSE CELL
    (z >> 8) the point count and how many of those points fall inside
    the audit rectangle — exactly the min/max-pruning statistics a
    Z-ordered layout keeps per file.  The locality property under
    audit: a rectangle touches few coarse cells, so ``n_rect > 0``
    rows are sparse.

    Shape: map-only code computation; one exchange bounded by the
    4096-cell grid, never by the point count.

    Contrast ``zorder_layout`` (dataops.py:454), the LAYOUT-side audit
    (per-tile min/max spans of both dimensions over (custkey, day)):
    this is the QUERY-side audit — given a rectangle predicate, how
    many rows would each cell contribute vs scan — i.e. the
    selectivity statistics a reader uses to prune, not the span
    statistics a writer clusters by."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id"])
    x1, x2, y1, y2 = _Z_RECT

    def _cells(t: pa.Table) -> pa.Table:
        eid = t.column("event_id").to_numpy()
        x = (eid * _Z_KX) % _Z_SIDE
        y = (eid * _Z_KY) % _Z_SIDE
        z = _morton_np(x, y)
        cell = z >> _Z_CELL_SHIFT
        in_rect = ((x >= x1) & (x <= x2) & (y >= y1) & (y <= y2)).astype(
            np.int64
        )
        df = pd.DataFrame({"cell": cell, "r": in_rect})
        g = df.groupby("cell", sort=False).agg(
            n=("r", "size"), n_rect=("r", "sum")
        ).reset_index()
        return pa.table(
            {
                "cell": pa.array(g["cell"].to_numpy(np.int64)),
                "n": pa.array(g["n"].to_numpy(np.int64)),
                "n_rect": pa.array(g["n_rect"].to_numpy(np.int64)),
            }
        )

    return (
        ds.map_batches(_cells, batch_format="pyarrow")
        .groupby("cell")
        .aggregate(Sum("n", alias_name="n"), Sum("n_rect", alias_name="n_rect"))
    )


SQL_ZORDER = f"""
WITH p AS (
  SELECT (event_id * {_Z_KX}) % {_Z_SIDE} AS x,
         (event_id * {_Z_KY}) % {_Z_SIDE} AS y
  FROM events),
z AS (SELECT ({_morton_expr_sql('x', 'y')}) AS z,
             CASE WHEN x BETWEEN {_Z_RECT[0]} AND {_Z_RECT[1]}
                   AND y BETWEEN {_Z_RECT[2]} AND {_Z_RECT[3]}
                  THEN 1 ELSE 0 END AS r
      FROM p)
SELECT z >> {_Z_CELL_SHIFT} AS cell,
       cast(count(*) AS BIGINT) AS n,
       cast(sum(r) AS BIGINT) AS n_rect
FROM z GROUP BY cell
"""


# --------------------------------------------------------- intervals

#: constant activity-interval duration (microseconds): 30 min
_IV_DUR_US = 1_800_000_000


def q_interval_overlap(sf_dir: str):
    """Per-user count of OVERLAPPING activity-interval pairs, where
    each event opens the interval [ts, ts + 30 min) — the interval
    self-join.  Because the duration is constant, interval ends are
    sorted whenever starts are, and the overlap count collapses to an
    order-statistics identity: with per-user starts sorted
    (s_1 <= ... <= s_k),

        n_overlap = sum_j ( j-1  -  #{i : s_i <= s_j - D} )

    (every earlier interval overlaps j unless it started at least D
    before).  One vectorized ``searchsorted`` per shard computes the
    whole sum — the pair set NEVER materializes, while the oracle
    runs the literal quadratic self-join with the lexicographic
    (ts, event_id) pair-ordering rule mirrored exactly.

    Shape: shard by ``user_id % 256``; per-shard one sort + one
    segment-offset searchsorted (users separated into disjoint key
    ranges so a single call serves every user in the shard).

    Contrast ``interval_coverage`` (series.py:101), which measures the
    UNION of a user's intervals (covered seconds + merged spans):
    this operator counts the overlapping PAIRS — the self-join
    cardinality — which is what a pairwise conflict/collision audit
    needs and what the naive quadratic join computes."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["user_id", "event_id", "ts"])

    def _key(t: pa.Table) -> pa.Table:
        u = t.column("user_id")
        return t.append_column(
            "shard",
            pc.bit_wise_and(pc.cast(u, pa.int64()), pa.scalar(255)),
        )

    def _count(g: pd.DataFrame) -> pd.DataFrame:
        # normalize to int64 MICROSECONDS explicitly (pandas may hand
        # the batch over as datetime64[us] or [ns] depending on version)
        us = g["ts"].to_numpy().astype("datetime64[us]").astype(np.int64)
        dur = _IV_DUR_US
        uid = g["user_id"].to_numpy(np.int64)
        eid = g["event_id"].to_numpy(np.int64)
        order = np.lexsort((eid, us, uid))
        uid, us = uid[order], us[order]
        # offset each user's timeline into a disjoint range so ONE
        # searchsorted call handles every segment in the shard
        _, seg = np.unique(uid, return_inverse=True)
        # 2^52 us >> the 30-day data span + duration, and
        # 256 * 2^52 < 2^63, so segments stay disjoint without overflow
        # and key_j - dur still clears every previous segment's keys.
        base = seg.astype(np.int64) << 52
        key = base + (us - us.min())
        cnt_leq = np.searchsorted(key, base + (us - us.min()) - dur,
                                  side="right")
        seg_start = np.concatenate(([0], np.flatnonzero(np.diff(seg)) + 1))
        j_local = np.arange(len(us)) - seg_start[seg]
        n_olap = j_local - (cnt_leq - seg_start[seg])
        df = pd.DataFrame({"user_id": uid, "n": n_olap})
        out = df.groupby("user_id", sort=False)["n"].sum().reset_index()
        out = out[out["n"] > 0]
        return pd.DataFrame(
            {
                "user_id": out["user_id"].to_numpy(np.int64),
                "n_overlaps": out["n"].to_numpy(np.int64),
            }
        )

    out = (
        ds.map_batches(_key, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_count, batch_format="pandas")
    )
    return out


SQL_INTERVAL_OVERLAP = f"""
WITH e AS (SELECT user_id, event_id, epoch_us(ts) AS us FROM events)
SELECT a.user_id, cast(count(*) AS BIGINT) AS n_overlaps
FROM e a JOIN e b
  ON a.user_id = b.user_id
 AND (a.us < b.us OR (a.us = b.us AND a.event_id < b.event_id))
 AND a.us + {_IV_DUR_US} > b.us
GROUP BY a.user_id
"""


# ------------------------------------------------- stream-stream join

#: band width for the cross-user purchase-pair join (microseconds)
_SJ_BAND_US = 60_000_000
#: key packing inside one 2-minute window: (ts - base) * 2^20 + eid.
#: event_id must fit 20 bits at this SF (asserted); at >2^20 events
#: widen the shift — the delta-ts term leaves 43 spare bits.
_SJ_EID_BITS = 20


def _sweep(g: pd.DataFrame) -> pd.DataFrame:
    us = g["us"].to_numpy(np.int64)
    eid = g["eid"].to_numpy(np.int64)
    uid = g["uid"].to_numpy(np.int64)
    seg = g["seg"].to_numpy(np.int64)
    host = g["is_host"].to_numpy(np.int64) == 1
    assert int(eid.max()) < (1 << _SJ_EID_BITS)
    # key RELATIVE TO THE SEGMENT's own base: a row serves segment
    # seg with us - seg*BAND in [0, 2*BAND), so the local key is
    # < 2^47 and the segment index gets the bits above (a
    # shard-global base would overflow: buckets mod 256 span the
    # whole month).
    rel = us - seg * _SJ_BAND_US
    key = rel * (1 << _SJ_EID_BITS) + eid
    _, si = np.unique(seg, return_inverse=True)
    sk = si.astype(np.int64) * (1 << 48) + key
    sks = np.sort(sk, kind="stable")
    up_local = (rel + _SJ_BAND_US) * (1 << _SJ_EID_BITS) + (
        (1 << _SJ_EID_BITS) - 1
    )
    up = si.astype(np.int64) * (1 << 48) + up_local
    total = np.searchsorted(sks, up, side="right") - np.searchsorted(
        sks, sk, side="right"
    )
    # same-user subtraction: (segment, user) joint segments
    _, sui = np.unique(
        si.astype(np.int64) * (1 << 32) + uid, return_inverse=True
    )
    suk = sui.astype(np.int64) * (1 << 48) + key
    suks = np.sort(suk, kind="stable")
    sup = sui.astype(np.int64) * (1 << 48) + up_local
    same = np.searchsorted(suks, sup, side="right") - np.searchsorted(
        suks, suk, side="right"
    )
    cross = (total - same)[host]
    day = (us[host] // 86_400_000_000)
    df = pd.DataFrame({"day": day, "n": cross})
    out = df.groupby("day", sort=False)["n"].sum().reset_index()
    return pd.DataFrame(
        {
            "day": out["day"].to_numpy(np.int64),
            "n": out["n"].to_numpy(np.int64),
        }
    )



def q_stream_join_60s(sf_dir: str):
    """Stream-stream (banded temporal) join: pairs of PURCHASES by
    DIFFERENT users within 60 s of each other, counted per day of the
    earlier event — the windowed cross-entity correlation a streaming
    engine expresses as a double-windowed join.  Pair rule mirrored
    exactly: (ts_a, id_a) < (ts_b, id_b) lexicographic, ts_b ≤ ts_a +
    60 s, user_a ≠ user_b.

    Mechanism (the bucket-replication idiom): each row serves minute
    bucket ``ts//60s`` as HOST and bucket-1 as GUEST, so every
    qualifying pair lives entirely inside the earlier event's bucket
    group; buckets re-key onto 256 segments-per-shard shards (bounded
    ``map_groups`` keys).  Inside a shard ONE searchsorted sweep per
    ordering (packed (Δts, event_id) keys with per-segment offsets)
    counts each host's in-band successors, and a second
    per-(segment, user) sweep subtracts same-user pairs — the pair
    set never materializes; the oracle runs the literal band
    self-join."""
    from ray.data.aggregate import Sum

    ds = _read(sf_dir, "events", ["event_id", "user_id", "event_type", "ts"])

    def _rep(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("event_type"), "purchase"))
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy(zero_copy_only=False)
        eid = t.column("event_id").to_numpy()
        uid = t.column("user_id").to_numpy()
        bucket = us // _SJ_BAND_US
        host = pa.table(
            {
                "seg": pa.array(bucket, pa.int64()),
                "us": pa.array(us),
                "eid": pa.array(eid, pa.int64()),
                "uid": pa.array(uid, pa.int64()),
                "is_host": pa.array(np.ones(len(us), dtype=np.int64)),
            }
        )
        guest = pa.table(
            {
                "seg": pa.array(bucket - 1, pa.int64()),
                "us": pa.array(us),
                "eid": pa.array(eid, pa.int64()),
                "uid": pa.array(uid, pa.int64()),
                "is_host": pa.array(np.zeros(len(us), dtype=np.int64)),
            }
        )
        both = pa.concat_tables([host, guest])
        return both.append_column(
            "shard",
            pc.bit_wise_and(both.column("seg"), pa.scalar(255)),
        )

    out = (
        ds.map_batches(_rep, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_sweep, batch_format="pandas")
        .groupby("day")
        .aggregate(Sum("n", alias_name="n_pairs"))
        .filter(expr="n_pairs > 0")
    )
    return out


SQL_STREAM_JOIN = f"""
WITH pur AS (SELECT event_id, user_id, epoch_us(ts) AS us
             FROM events WHERE event_type = 'purchase')
SELECT cast(a.us // 86400000000 AS BIGINT) AS day,
       cast(count(*) AS BIGINT) AS n_pairs
FROM pur a JOIN pur b
  ON (a.us < b.us OR (a.us = b.us AND a.event_id < b.event_id))
 AND b.us <= a.us + {_SJ_BAND_US}
 AND a.user_id <> b.user_id
GROUP BY day
"""


# --------------------------------------------------- theta (CDF) join

def q_theta_join_cdf(sf_dir: str):
    """Pure-inequality (theta) join as a broadcast-CDF aggregation:
    per order priority, the number of (order, lineitem) pairs with
    ``l_extendedprice < o_totalprice`` — the classic non-equi join
    that has NO key to hash on.  Instead of pairing, the lineitem side
    reduces to its exact value CDF (distinct cents + cumulative
    counts, one bounded exchange — bounded by the price DOMAIN, not
    the row count), broadcast once; each order then resolves its pair
    count with one ``searchsorted``.  The oracle runs the literal
    inequality join (DuckDB IEJoin).  At 100 TB the exact CDF swaps
    for the ``equidepth_bins`` boundaries + per-bin counts with the
    same probe — the mechanism (broadcast monotone structure, local
    binary search) is the point."""

    li = _read(sf_dir, "lineitem", ["l_extendedprice"])

    def _census(t: pa.Table) -> pa.Table:
        from .relational import _i64_away_np

        c = _i64_away_np(
            t.column("l_extendedprice").to_numpy(zero_copy_only=False), 100.0
        )
        v, n = np.unique(c, return_counts=True)
        # re-key onto a bounded shard: the distinct-cents domain is
        # ~500k values at sf0.1 and a groupby on it hits Ray's
        # high-cardinality hash-aggregate degradation (measured
        # 11.7 s → 4.1 s for the whole query); 256 shards keep the
        # exchange key bounded while each shard folds its slice of
        # the domain vectorized.
        return pa.table(
            {
                "shard": pa.array((v % 256).astype(np.int64)),
                "c": pa.array(v.astype(np.int64)),
                "n": pa.array(n.astype(np.int64)),
            }
        )

    def _shard_fold(g: pd.DataFrame) -> pd.DataFrame:
        v = g["c"].to_numpy(np.int64)
        n = g["n"].to_numpy(np.int64)
        u, inv = np.unique(v, return_inverse=True)
        tot = np.zeros(len(u), dtype=np.int64)
        np.add.at(tot, inv, n)
        return pd.DataFrame({"c": u, "n": tot})

    cdf = (
        li.map_batches(_census, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_shard_fold, batch_format="pandas")
        .to_pandas()  # bounded by the distinct price domain
        .sort_values("c", kind="mergesort")
    )
    vals = cdf["c"].to_numpy(np.int64)
    cum = np.concatenate(([0], np.cumsum(cdf["n"].to_numpy(np.int64))))

    orders = _read(sf_dir, "orders", ["o_orderpriority", "o_totalprice"])

    def _probe(t: pa.Table, vals=vals, cum=cum) -> pa.Table:
        from .relational import _i64_away_np

        oc = _i64_away_np(
            t.column("o_totalprice").to_numpy(zero_copy_only=False), 100.0
        )
        below = cum[np.searchsorted(vals, oc, side="left")]
        df = pd.DataFrame(
            {
                "o_orderpriority": t.column("o_orderpriority").to_numpy(
                    zero_copy_only=False
                ),
                "below": below,
            }
        )
        g = df.groupby("o_orderpriority", sort=False).agg(
            n_orders=("below", "size"), pairs_below=("below", "sum")
        ).reset_index()
        return pa.table(
            {
                "o_orderpriority": pa.array(g["o_orderpriority"]),
                "n_orders": pa.array(g["n_orders"].to_numpy(np.int64)),
                "pairs_below": pa.array(g["pairs_below"].to_numpy(np.int64)),
            }
        )

    # final merge: each probe batch already collapsed to <=5 rows (the
    # priority domain is FIXED), so partials are driver-safe at any
    # scale and the 5-key hash-aggregate operator (~2 s startup) is
    # pure overhead — fold on the driver instead.
    parts = (
        orders.map_batches(_probe, batch_format="pyarrow")
        .to_pandas()
        .groupby("o_orderpriority", sort=True)
        .sum()
        .reset_index()
    )
    return pa.table(
        {
            "o_orderpriority": pa.array(parts["o_orderpriority"]),
            "n_orders": pa.array(parts["n_orders"].to_numpy(np.int64)),
            "pairs_below": pa.array(parts["pairs_below"].to_numpy(np.int64)),
        }
    )


# merge-window formulation of the strict-< pair count (the literal
# `o LEFT JOIN l ON l.c < o.c` gives identical results but costs the
# oracle ~80 s at sf0.01): tag both sides, sort by (c, tag) with order
# rows (tag 0) BEFORE lineitem rows (tag 1) at equal c, and each order
# row's running lineitem-count over strictly-preceding rows is exactly
# #{l.c < o.c} — equal-c lineitems sort after and never count.
SQL_THETA_JOIN = """
WITH l AS (SELECT cast(round(l_extendedprice * 100, 0) AS BIGINT) AS c
           FROM lineitem),
o AS (SELECT o_orderpriority,
             cast(round(o_totalprice * 100, 0) AS BIGINT) AS c
      FROM orders),
m AS (SELECT c, 1 AS lcnt, NULL AS pri FROM l
      UNION ALL
      SELECT c, 0 AS lcnt, o_orderpriority AS pri FROM o),
w AS (SELECT pri,
             coalesce(sum(lcnt) OVER (ORDER BY c, lcnt
                          ROWS BETWEEN UNBOUNDED PRECEDING
                          AND 1 PRECEDING), 0) AS below
      FROM m)
SELECT pri AS o_orderpriority,
       cast(count(*) AS BIGINT) AS n_orders,
       cast(sum(below) AS BIGINT) AS pairs_below
FROM w WHERE pri IS NOT NULL GROUP BY pri
"""


QUERIES = {
    "zorder_cells": q_zorder_cells,
    "interval_overlap": q_interval_overlap,
    "stream_join_60s": q_stream_join_60s,
    "theta_join_cdf": q_theta_join_cdf,
}

ORACLE_SQL = {
    "zorder_cells": SQL_ZORDER,
    "interval_overlap": SQL_INTERVAL_OVERLAP,
    "stream_join_60s": SQL_STREAM_JOIN,
    "theta_join_cdf": SQL_THETA_JOIN,
}
