"""Round-3 continuation #13: membership / cardinality sketches made
ORACLE-EXACT — the two sketch primitives every distributed engine
ships (HyperLogLog cardinality, Bloom-filter semi-join pruning),
expressed so that the sketch state itself is a pure integer function
of ``md5`` hashes and therefore identical in DuckDB:

- ``hll_exact``      HyperLogLog registers + raw estimate, hash-exact
                     (upgrades the float/seeded ``approx_distinct_users``
                     concept to a fully driver-verified row)
- ``bloom_semijoin`` Bloom-filter membership pruning audit: build bits
                     over the urgent-order key set, probe every
                     lineitem row, report pass / true / false-positive
                     counts — the join-pruning sketch (a "sideways
                     information passing" runtime filter)

Exactness strategy (the ``bootstrap_ci`` / ``dp_counts`` idiom,
audit.py:469): every hash is ``md5_number_lower(printf(...))`` ==
``int.from_bytes(md5(s).digest()[8:], "little")``, every register /
bit position / estimate is integer arithmetic (HUGEINT where the
numerator exceeds 2^63), so both engines materialize the SAME sketch
bit-for-bit — no seeded RNG, no float harmonic mean.

Scale shape:
- HLL: each batch reduces its DISTINCT keys to ≤ m=1024 (bucket, rho)
  partial maxima; a map_batches tree-fold collapses every 2^20 partial
  rows to ≤m (no keyed exchange — Max is associative), final ≤m-row
  fold on the driver.  Stream length never matters.
- Bloom: each build batch reduces to ONE packed 8 KiB bitmap row; the
  driver ORs #batches bitmaps and broadcasts the result once via the
  closure; probe batches emit 4-counter partials.  (The exact
  true-match set is also broadcast here so the audit can count false
  positives — bounded at this SF; at 100 TB the true-match column
  drops and the FP rate is *estimated* against the green ``semi_join``
  instead, as documented on the query.)
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc

from ..functions.exchange import by_shard
from .relational import _read

# --------------------------------------------------------------- HLL

#: register count m = 2^P (Flajolet et al. 2007 recommend m >= 2^10
#: for <2% error); bucket = h % m
_HLL_P = 10
_HLL_M = 1 << _HLL_P
#: rho is the leading-zero rank within a fixed R-bit field taken from
#: the hash ABOVE the bucket bits: rest = (h // m) % 2^R
_HLL_R = 50
#: Flajolet alpha_m for m=1024 = 0.7213/(1 + 1.079/1024), e6-quantized
#: once as a shared literal so both engines use the identical rational.
_HLL_ALPHA_E6 = 720_540
#: sum term scale: Sigma 2^(-rho) * 2^(R+1) keeps every term integral
#: (rho ranges 0..R+1); max sum = m * 2^(R+1) = 2^61 — fits int64.
_HLL_SCALE = _HLL_R + 1


def _md5_u64(s: str) -> int:
    """== DuckDB ``md5_number_lower(s)`` (probed in tests)."""
    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")


def _hll_rho(rest: np.ndarray) -> np.ndarray:
    """leading-zero rank of an R-bit field: R - bit_length + 1, and
    R + 1 for the all-zero field (Flajolet's convention)."""
    bl = np.zeros(len(rest), dtype=np.int64)
    nz = rest > 0
    # vectorized bit_length via float exponent is unsafe at 50 bits;
    # np.log2 on exact powers can be off by ulp — use frexp on uint64
    # viewed through float64? No: do it exactly with a shift loop over
    # the 6 bit-levels (branchless, 6 ops total).
    v = rest.astype(np.uint64).copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = v >= (np.uint64(1) << np.uint64(shift))
        bl[big] += shift
        v[big] >>= np.uint64(shift)
    bl[nz] += 1  # bit_length = floor(log2)+1
    rho = np.where(nz, _HLL_R - bl + 1, _HLL_R + 1)
    return rho.astype(np.int64)


def q_hll_exact(sf_dir: str):
    """HyperLogLog (Flajolet–Fusy–Gandouet–Meunier 2007) cardinality
    of ``lineitem.l_orderkey`` with m=1024 registers, made HASH-EXACT:
    registers and the raw estimate are integer functions of
    ``md5_number_lower(printf('%d', key))`` mirrored verbatim in SQL.
    Output is one row: (m, zero_regs, sum_scaled, est_raw,
    exact_distinct) — the estimate lands within ~3% of the 14.7k true
    cardinality at sf0.01, and the driver hash-checks every integer.

    Distributed shape: per-batch distinct → ≤m (bucket, rho) partials,
    an exchange-free map_batches tree-fold (Max is associative), tiny
    driver fold.  ``exact_distinct`` runs per-batch uniques through
    the ``by_shard`` exchange purely for the audit column.

    Contrast ``approx_distinct_users`` (relational.py:2109), the
    classic float-estimate HLL that can only be rows-only checked
    (DuckDB's own sketch differs): this variant pins the REGISTERS
    to a SQL-expressible hash and releases an integer estimate, so
    the sketch state itself is driver-verified."""

    ds = _read(sf_dir, "lineitem", ["l_orderkey"])

    def _partial(batch: pa.Table) -> pa.Table:
        keys = np.unique(batch.column("l_orderkey").to_numpy())
        h = np.array([_md5_u64(str(int(k))) for k in keys], dtype=np.uint64)
        bucket = (h % np.uint64(_HLL_M)).astype(np.int64)
        rest = ((h >> np.uint64(_HLL_P)) % (np.uint64(1) << np.uint64(_HLL_R)))
        rho = _hll_rho(rest)
        df = pd.DataFrame({"bucket": bucket, "rho": rho})
        g = df.groupby("bucket", sort=False)["rho"].max().reset_index()
        return pa.table(
            {
                "bucket": pa.array(g["bucket"].to_numpy(np.int64)),
                "rho": pa.array(g["rho"].to_numpy(np.int64)),
            }
        )

    # register merge: Max is associative, so a fixed-size sketch needs
    # no keyed exchange at all — a map_batches TREE-FOLD (each fold
    # batch collapses <=2^20 partial rows to <=m) followed by a tiny
    # driver fold. The groupby(bucket).Max form measured 4.8 s at
    # sf0.1 (hash-aggregate operator startup dominates a 1024-key
    # exchange); this shape is 2.2 s and ships <=m rows per 2^20
    # partials to the driver at any scale.
    def _fold(batch: pa.Table) -> pa.Table:
        acc = np.zeros(_HLL_M, dtype=np.int64)
        np.maximum.at(
            acc, batch.column("bucket").to_numpy(), batch.column("rho").to_numpy()
        )
        nz = np.nonzero(acc)[0]
        return pa.table({"bucket": pa.array(nz), "rho": pa.array(acc[nz])})

    parts = ds.map_batches(_partial, batch_format="pyarrow").map_batches(
        _fold, batch_format="pyarrow", batch_size=1 << 20
    )
    rho = np.zeros(_HLL_M, dtype=np.int64)
    for t in parts.iter_batches(batch_format="pyarrow", batch_size=None):
        np.maximum.at(rho, t.column("bucket").to_numpy(), t.column("rho").to_numpy())

    sum_scaled = int((np.int64(1) << (_HLL_SCALE - rho)).sum())
    zero_regs = int((rho == 0).sum())
    # est = alpha_m * m^2 / Sigma 2^-rho, all-integer via the shared
    # scale; numerator ~ 7e5 * 2^20 * 2^51 ~ 2^90 — Python int here,
    # HUGEINT in the mirror.
    est_raw = (_HLL_ALPHA_E6 * _HLL_M * _HLL_M * (1 << _HLL_SCALE)) // (
        10**6 * sum_scaled
    )

    # audit column: exact distinct. NOT ``groupby(k).count().count()``
    # — Ray's hash aggregate degrades on the 147k-key cardinality
    # (measured 5.7 s vs 1.6 s at sf0.1) — run per-batch uniques
    # through the by_shard exchange and nunique inside each shard.
    def _uniq(t: pa.Table) -> pa.Table:
        return pa.table({"k": np.unique(t.column("l_orderkey").to_numpy())})

    def _shard_nunique(g: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame({"n": [g["k"].nunique()]})

    exact = int(
        by_shard(
            ds.map_batches(_uniq, batch_format="pyarrow"), "k",
            _shard_nunique, pa.schema([("n", pa.int64())]),
        )
        .to_pandas()["n"]
        .sum()
    )
    return pa.table(
        {
            "m": pa.array([_HLL_M], pa.int64()),
            "zero_regs": pa.array([zero_regs], pa.int64()),
            "sum_scaled": pa.array([sum_scaled], pa.int64()),
            "est_raw": pa.array([est_raw], pa.int64()),
            "exact_distinct": pa.array([int(exact)], pa.int64()),
        }
    )


SQL_HLL_EXACT = f"""
WITH u AS (SELECT DISTINCT l_orderkey AS k FROM lineitem),
h AS (SELECT md5_number_lower(printf('%d', k)) AS h FROM u),
b AS (SELECT cast(h % {_HLL_M} AS BIGINT) AS bucket,
             cast((h // {_HLL_M}) % {1 << _HLL_R} AS BIGINT) AS rest
      FROM h),
r AS (SELECT bucket,
             max(CASE WHEN rest = 0 THEN {_HLL_R + 1}
                      ELSE {_HLL_R} - length(printf('%b', rest)) + 1
                 END) AS rho
      FROM b GROUP BY bucket),
regs AS (SELECT g.bucket, coalesce(r.rho, 0) AS rho
         FROM range(0, {_HLL_M}) g(bucket)
         LEFT JOIN r ON r.bucket = g.bucket),
s AS (SELECT cast(sum(cast(1 AS BIGINT) << ({_HLL_SCALE} - rho)) AS BIGINT)
                 AS sum_scaled,
             cast(sum(CASE WHEN rho = 0 THEN 1 ELSE 0 END) AS BIGINT)
                 AS zero_regs
      FROM regs)
SELECT cast({_HLL_M} AS BIGINT) AS m,
       zero_regs,
       sum_scaled,
       cast((cast({_HLL_ALPHA_E6} AS HUGEINT) * {_HLL_M} * {_HLL_M}
             * (cast(1 AS HUGEINT) << {_HLL_SCALE}))
            // (1000000 * cast(sum_scaled AS HUGEINT)) AS BIGINT) AS est_raw,
       (SELECT cast(count(*) AS BIGINT) FROM u) AS exact_distinct
FROM s
"""


# ------------------------------------------------------------- Bloom

#: bit-array size 2^16 and k=3 hash functions; with the urgent-order
#: build set (~20% of orders) the load factor is ~0.14 and the
#: theoretical FP rate ~0.2% — small but reliably nonzero at sf>=0.01,
#: so the false-positive counter actually exercises the audit.
_BLOOM_BITS_LOG2 = 16
_BLOOM_BITS = 1 << _BLOOM_BITS_LOG2
_BLOOM_K = 3
_BLOOM_PRED = "o_orderpriority = '1-URGENT'"


def _bloom_positions(keys: np.ndarray) -> list[np.ndarray]:
    """k bit positions per key: md5_number_lower('<i>|<key>') % m —
    independent hash functions by domain-separating on the index."""
    out = []
    for i in range(1, _BLOOM_K + 1):
        out.append(
            np.array(
                [_md5_u64(f"{i}|{int(k)}") % _BLOOM_BITS for k in keys],
                dtype=np.int64,
            )
        )
    return out


def q_bloom_semijoin(sf_dir: str):
    """Bloom-filter semi-join pruning audit (Bloom 1970; the runtime
    join filter every warehouse pushes into scans).  Build: the set of
    URGENT order keys hashed k=3 times into a 2^16-bit array — each
    build batch reduces to ONE packed 8 KiB bitmap, OR-folded on the
    driver.  Probe: every ``lineitem`` row; a row passes if all three
    bits are set.  Output one row of counters: probe volume, bloom
    passes, true matches, false positives — hash-exact vs a verbatim
    SQL mirror (positions via the same md5 printf), so the driver
    verifies the filter's exact selectivity, not an approximation.

    At 100 TB the true-match broadcast set disappears (that's the
    `semi_join` operator's job); the bitmap itself stays 8 KiB
    regardless of build-side row count — that invariance is the whole
    point of the sketch.

    Contrast ``semi_join_bloom`` (analytics.py:1058), which USES a
    numpy-hashed Bloom filter as a prefilter inside a semi-join (its
    oracle can only check the join result): here the k bit positions
    are ``md5`` printf expressions DuckDB evaluates too, so the
    driver verifies the FILTER itself — pass/true/false-positive
    counts — not just the survivors."""
    orders = _read(sf_dir, "orders", ["o_orderkey", "o_orderpriority"])

    def _build(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch.column("o_orderpriority"), "1-URGENT")
        keys = np.unique(
            pc.filter(batch.column("o_orderkey"), mask).to_numpy(
                zero_copy_only=False
            )
        )
        bits = np.zeros(_BLOOM_BITS, dtype=bool)
        for pos in _bloom_positions(keys):
            bits[pos] = True
        return pa.table(
            {
                "bitmap": pa.array([np.packbits(bits).tobytes()], pa.binary()),
                "keys": pa.array([keys.tolist()], pa.list_(pa.int64())),
            }
        )

    bits = np.zeros(_BLOOM_BITS, dtype=bool)
    true_keys: set[int] = set()
    for row in orders.map_batches(_build, batch_format="pyarrow").take_all():
        bits |= np.unpackbits(
            np.frombuffer(row["bitmap"], dtype=np.uint8)
        ).astype(bool)
        true_keys.update(int(k) for k in row["keys"])
    true_arr = np.array(sorted(true_keys), dtype=np.int64)

    probe = _read(sf_dir, "lineitem", ["l_orderkey"])

    def _probe(batch: pa.Table, bits=bits, true_arr=true_arr) -> pa.Table:
        k = batch.column("l_orderkey").to_numpy()
        uk, inv = np.unique(k, return_inverse=True)
        ok = np.ones(len(uk), dtype=bool)
        for pos in _bloom_positions(uk):
            ok &= bits[pos]
        is_true_u = np.isin(uk, true_arr)
        pass_rows = ok[inv]
        true_rows = is_true_u[inv]
        return pa.table(
            {
                "n_probe": pa.array([len(k)], pa.int64()),
                "n_pass": pa.array([int(pass_rows.sum())], pa.int64()),
                "n_true": pa.array([int(true_rows.sum())], pa.int64()),
                "n_false_pos": pa.array(
                    [int((pass_rows & ~true_rows).sum())], pa.int64()
                ),
            }
        )

    parts = probe.map_batches(_probe, batch_format="pyarrow").to_pandas()
    return pa.table(
        {
            c: pa.array([int(parts[c].sum())], pa.int64())
            for c in ("n_probe", "n_pass", "n_true", "n_false_pos")
        }
    )


def _bloom_pos_sql(i: int, expr: str) -> str:
    return f"md5_number_lower(printf('%d|%d', {i}, {expr})) % {_BLOOM_BITS}"


SQL_BLOOM_SEMIJOIN = f"""
WITH q AS (SELECT DISTINCT o_orderkey AS k FROM orders
           WHERE {_BLOOM_PRED}),
bits AS (
  {" UNION ".join(f"SELECT DISTINCT {_bloom_pos_sql(i, 'k')} AS pos FROM q" for i in range(1, _BLOOM_K + 1))}
),
pk AS (SELECT l_orderkey AS k, cast(count(*) AS BIGINT) AS nrows
       FROM lineitem GROUP BY l_orderkey),
flags AS (
  SELECT pk.k, pk.nrows,
         ({" AND ".join(f"EXISTS(SELECT 1 FROM bits WHERE pos = {_bloom_pos_sql(i, 'pk.k')})" for i in range(1, _BLOOM_K + 1))})
             AS pass,
         EXISTS(SELECT 1 FROM q WHERE q.k = pk.k) AS is_true
  FROM pk)
SELECT cast(sum(nrows) AS BIGINT) AS n_probe,
       cast(sum(CASE WHEN pass THEN nrows ELSE 0 END) AS BIGINT) AS n_pass,
       cast(sum(CASE WHEN is_true THEN nrows ELSE 0 END) AS BIGINT) AS n_true,
       cast(sum(CASE WHEN pass AND NOT is_true THEN nrows ELSE 0 END)
            AS BIGINT) AS n_false_pos
FROM flags
"""


# ----------------------------------------------------------- KMV/theta

#: sketch size: the k smallest md5 values represent each set
_KMV_K = 64
#: hash modulus for KMV (2^61-1, the repo's priority modulus — keeps
#: every hash and every (k-1)*M product inside HUGEINT in the mirror)
_PRI = (1 << 61) - 1


def q_kmv_intersect(sf_dir: str):
    """KMV / theta-sketch set intersection (Beyer et al. 2007;
    Dasgupta et al.'s theta sketch): the k=64 smallest
    ``md5(user_id)`` values summarize each of two user sets
    (purchasers vs clickers); cardinalities estimate as
    ``(k-1)·M // h_(k)`` and the intersection via the common values
    below the UNION sketch's k-th threshold — every quantity an
    integer function of the same hashes DuckDB computes, so the whole
    sketch state is driver-verified (the ``hll_exact`` upgrade
    applied to set ALGEBRA: HLL only unions, theta sketches
    intersect).  Output one row: (k, tau, n_common, est_a, est_b,
    est_intersect) plus the exact |A∩B| audit column.

    Shape: per-batch distinct → per-batch k-minima (≤k rows per batch
    per side) → one bounded exchange; the fold is over ≤2k values.
    Hashes are taken mod 2^61-1 so every value fits signed int64 on
    both engines."""
    ds = _read(sf_dir, "events", ["user_id", "event_type"])

    def _partial(t: pa.Table) -> pa.Table:
        sides, hs = [], []
        for etype, side in (("purchase", "a"), ("click", "b")):
            mask = pc.equal(t.column("event_type"), etype)
            uids = np.unique(
                pc.filter(t.column("user_id"), mask).to_numpy(
                    zero_copy_only=False
                )
            )
            h = np.sort(
                np.array(
                    [_md5_u64(str(int(u))) % _PRI for u in uids],
                    dtype=np.int64,
                )
            )[:_KMV_K]
            sides.extend([side] * len(h))
            hs.append(h)
        return pa.table(
            {
                "side": pa.array(sides),
                "h": pa.array(
                    np.concatenate(hs) if hs else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    rows = (
        ds.map_batches(_partial, batch_format="pyarrow")
        .groupby(["side", "h"])
        .count()
        .select_columns(["side", "h"])
        .to_pandas()  # bounded: <= 2k per batch, deduped
    )
    a = np.sort(rows[rows["side"] == "a"]["h"].to_numpy(np.int64))[:_KMV_K]
    b = np.sort(rows[rows["side"] == "b"]["h"].to_numpy(np.int64))[:_KMV_K]
    hk_a, hk_b = int(a[-1]), int(b[-1])
    est_a = (_KMV_K - 1) * _PRI // hk_a
    est_b = (_KMV_K - 1) * _PRI // hk_b
    union = np.sort(np.unique(np.concatenate([a, b])))[:_KMV_K]
    tau = int(union[-1])
    common = np.intersect1d(a, b)
    n_common = int((common <= tau).sum())
    est_union = (_KMV_K - 1) * _PRI // tau
    est_intersect = n_common * est_union // _KMV_K

    # exact audit: |A ∩ B| via the distinct (side, user) grid
    def _users(t: pa.Table) -> pa.Table:
        out_side, out_u = [], []
        for etype, side in (("purchase", "a"), ("click", "b")):
            mask = pc.equal(t.column("event_type"), etype)
            u = np.unique(
                pc.filter(t.column("user_id"), mask).to_numpy(
                    zero_copy_only=False
                )
            )
            out_side.extend([side] * len(u))
            out_u.append(u)
        return pa.table(
            {
                "side": pa.array(out_side),
                "u": pa.array(
                    np.concatenate(out_u) if out_u else np.array([], np.int64),
                    pa.int64(),
                ),
            }
        )

    grid = (
        ds.map_batches(_users, batch_format="pyarrow")
        .groupby(["side", "u"])
        .count()
        .select_columns(["side", "u"])
        .to_pandas()
    )
    exact = int(
        np.intersect1d(
            grid[grid["side"] == "a"]["u"].to_numpy(np.int64),
            grid[grid["side"] == "b"]["u"].to_numpy(np.int64),
        ).size
    )
    return pa.table(
        {
            "k": pa.array([_KMV_K], pa.int64()),
            "tau": pa.array([tau], pa.int64()),
            "n_common": pa.array([n_common], pa.int64()),
            "est_a": pa.array([est_a], pa.int64()),
            "est_b": pa.array([est_b], pa.int64()),
            "est_intersect": pa.array([est_intersect], pa.int64()),
            "exact_intersect": pa.array([exact], pa.int64()),
        }
    )


SQL_KMV = f"""
WITH au AS (SELECT DISTINCT user_id FROM events
            WHERE event_type = 'purchase'),
bu AS (SELECT DISTINCT user_id FROM events WHERE event_type = 'click'),
ah AS (SELECT md5_number_lower(printf('%d', user_id)) % {_PRI} AS h
       FROM au ORDER BY h LIMIT {_KMV_K}),
bh AS (SELECT md5_number_lower(printf('%d', user_id)) % {_PRI} AS h
       FROM bu ORDER BY h LIMIT {_KMV_K}),
hka AS (SELECT max(h) AS hk FROM ah),
hkb AS (SELECT max(h) AS hk FROM bh),
un AS (SELECT h FROM (SELECT h FROM ah UNION SELECT h FROM bh)
       ORDER BY h LIMIT {_KMV_K}),
tau AS (SELECT max(h) AS tau FROM un),
com AS (SELECT count(*) AS n_common
        FROM (SELECT h FROM ah INTERSECT SELECT h FROM bh) c, tau
        WHERE c.h <= tau.tau),
eu AS (SELECT cast(({_KMV_K} - 1) * cast({_PRI} AS HUGEINT) // tau
              AS BIGINT) AS est_union FROM tau),
ex AS (SELECT cast(count(*) AS BIGINT) AS exact_intersect
       FROM (SELECT user_id FROM au INTERSECT SELECT user_id FROM bu))
SELECT cast({_KMV_K} AS BIGINT) AS k,
       cast(tau.tau AS BIGINT) AS tau,
       cast(com.n_common AS BIGINT) AS n_common,
       cast(({_KMV_K} - 1) * cast({_PRI} AS HUGEINT) // hka.hk AS BIGINT)
           AS est_a,
       cast(({_KMV_K} - 1) * cast({_PRI} AS HUGEINT) // hkb.hk AS BIGINT)
           AS est_b,
       cast(cast(com.n_common AS HUGEINT) * eu.est_union // {_KMV_K}
            AS BIGINT) AS est_intersect,
       ex.exact_intersect
FROM tau, com, hka, hkb, eu, ex
"""


QUERIES = {
    "hll_exact": q_hll_exact,
    "bloom_semijoin": q_bloom_semijoin,
    "kmv_intersect": q_kmv_intersect,
}

ORACLE_SQL = {
    "hll_exact": SQL_HLL_EXACT,
    "bloom_semijoin": SQL_BLOOM_SEMIJOIN,
    "kmv_intersect": SQL_KMV,
}
