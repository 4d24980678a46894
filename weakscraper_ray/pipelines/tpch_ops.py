"""Round-4 classic warehouse shapes over the TPC-H-ish tables — three
join/retention compositions the existing families don't exercise:

- ``promo_revenue``    Q14 shape: promotion revenue share per
                       ship-month — a broadcast DIM classifier
                       (part → is-promo) applied inside the fact scan,
                       zero fact-side join
- ``returned_revenue`` Q10 shape: top-20 customers by revenue on
                       RETURNED items in a 6-month window — selective
                       fact filter → one distributed hash join →
                       bounded top-k with broadcast name attach
- ``daily_churn``      day-over-day active-user retention/churn from
                       events — per-user day BITMASK fold (the events
                       table spans one calendar month, so the whole
                       retention matrix costs two bounded exchanges;
                       no self-join of day cohorts)

Money is summed as PER-TERM cents (half away from zero per lineitem,
then exact integer sums — a single final rounding is 1-ulp
order-sensitive between engines, measured on this corpus); every
share is released as a truncating ``*_e6`` integer, so all outputs
hash-compare exactly against the DuckDB twins.
"""

from __future__ import annotations

import numpy as np
import pandas as pd  # noqa: F401  (parity with sibling modules)
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from .relational import _p, _read

# =====================================================================
# promo_revenue (Q14 shape)
# =====================================================================


def q_promo_revenue(sf_dir: str):
    """Promotion revenue share per ship-month.  part is the SMALL side
    (200k × SF rows vs lineitem's 6M × SF): its p_type classification
    collapses to a dense ``partkey → is_promo`` uint8 array shipped
    once via ``ray.put`` and probed with one numpy take per batch —
    the fact table never joins, never shuffles payload; the only
    exchange is the ≤ #months-cardinality month roll-up.  Output
    (ship_month 'YYYY-MM', promo_revenue_cents, total_revenue_cents,
    promo_e6)."""
    from ray.data.aggregate import Sum

    part = pq.read_table(_p(sf_dir, "part"), columns=["p_partkey", "p_type"])
    pk = part.column("p_partkey").to_numpy().astype(np.int64)
    promo = np.zeros(int(pk.max()) + 1, dtype=np.uint8)
    promo[pk] = pc.equal(part.column("p_type"), "PROMO").to_numpy(
        zero_copy_only=False
    ).astype(np.uint8)
    promo_ref = ray.put(promo)

    li = _read(
        sf_dir, "lineitem",
        ["l_partkey", "l_extendedprice", "l_discount", "l_shipdate"],
    )

    class _Partial:
        def __init__(self, promo_ref):
            self.promo = (
                ray.get(promo_ref)
                if isinstance(promo_ref, ray.ObjectRef) else promo_ref
            )

        def __call__(self, t: pa.Table) -> pa.Table:
            if t.num_rows == 0:
                return pa.table(
                    {
                        "ship_month": pa.array([], pa.string()),
                        "pr": pa.array([], pa.int64()),
                        "tr": pa.array([], pa.int64()),
                    }
                )
            rev = (
                t.column("l_extendedprice").to_numpy(zero_copy_only=False)
                * (1.0 - t.column("l_discount").to_numpy(zero_copy_only=False))
            )
            # per-TERM cents (half away from zero, the _i64_away rule):
            # integer partials make the sum order-independent, so the
            # distributed fold and the SQL twin agree bit-for-bit (a
            # single final rounding is 1-ulp order-sensitive — measured)
            cents = np.copysign(
                np.floor(np.abs(rev * 100.0) + 0.5), rev
            ).astype(np.int64)
            is_promo = self.promo[
                t.column("l_partkey").to_numpy(zero_copy_only=False)
            ].astype(bool)
            m = pc.strftime(t.column("l_shipdate"), format="%Y-%m")
            codes, uniq = pd.factorize(m.to_pandas(), sort=False)
            pr = np.zeros(len(uniq), np.int64)
            tr = np.zeros(len(uniq), np.int64)
            np.add.at(tr, codes, cents)
            np.add.at(pr, codes, np.where(is_promo, cents, 0))
            return pa.table(
                {
                    "ship_month": pa.array(np.asarray(uniq), pa.string()),
                    "pr": pa.array(pr),
                    "tr": pa.array(tr),
                }
            )

    sums = (
        li.map_batches(
            _Partial,
            fn_constructor_kwargs=dict(promo_ref=promo_ref),
            batch_format="pyarrow",
            concurrency=(1, 4),
        )
        .groupby("ship_month")
        .aggregate(Sum("pr", alias_name="pr"), Sum("tr", alias_name="tr"))
    )

    def _fin(t: pa.Table) -> pa.Table:
        prc = t.column("pr").to_numpy(zero_copy_only=False).astype(np.int64)
        trc = t.column("tr").to_numpy(zero_copy_only=False).astype(np.int64)
        # Python-int divide, not numpy: 1e6 * monthly cents wraps int64
        # silently once monthly revenue exceeds ~9.2e12 cents (~TPC-H
        # SF100) while the DuckDB twin raises loudly (ADVICE r4). The
        # array is one row per month — exact bigint cost is nil.
        e6 = pa.array(
            [(1_000_000 * int(p)) // int(tt) for p, tt in zip(prc, trc)],
            pa.int64(),
        )
        return pa.table(
            {
                "ship_month": t.column("ship_month"),
                "promo_revenue_cents": pa.array(prc),
                "total_revenue_cents": pa.array(trc),
                "promo_e6": e6,
            }
        )

    return sums.map_batches(_fin, batch_format="pyarrow")


SQL_PROMO_REVENUE = """
WITH m AS (
  SELECT strftime(l_shipdate, '%Y-%m') AS ship_month,
         cast(sum(CASE WHEN p.p_type = 'PROMO'
                       THEN cast(round(l_extendedprice * (1 - l_discount)
                                       * 100, 0) AS BIGINT)
                       ELSE 0 END) AS BIGINT) AS promo_revenue_cents,
         cast(sum(cast(round(l_extendedprice * (1 - l_discount) * 100, 0)
                       AS BIGINT)) AS BIGINT) AS total_revenue_cents
  FROM lineitem l JOIN part p ON l.l_partkey = p.p_partkey
  GROUP BY 1)
SELECT ship_month, promo_revenue_cents, total_revenue_cents,
       cast((1000000 * promo_revenue_cents) // total_revenue_cents
            AS BIGINT) AS promo_e6
FROM m
"""


# =====================================================================
# returned_revenue (Q10 shape)
# =====================================================================

_Q10_LO = np.datetime64("1996-07-01", "us")
_Q10_HI = np.datetime64("1997-01-01", "us")
_Q10_TOPK = 20


def q_returned_revenue(sf_dir: str):
    """Top-20 customers by revenue on RETURNED items (l_returnflag =
    'R') for orders placed in a 6-month window.  Both join inputs are
    filtered BEFORE the exchange (returned lineitems only; windowed
    orders only), the distributed hash join keys on o_orderkey, the
    per-customer Sum is the second (customer-cardinality) exchange,
    and the top-k is a bounded sort+limit whose name/nation attach is
    a driver-side probe of the broadcast dims (20 rows).  Ties break
    on c_custkey ascending.  Output (c_custkey, c_name, n_name,
    revenue_cents)."""
    from ray.data.aggregate import Sum

    li = _read(
        sf_dir, "lineitem",
        ["l_orderkey", "l_returnflag", "l_extendedprice", "l_discount"],
    )

    def _lfilter(t: pa.Table) -> pa.Table:
        t = t.filter(pc.equal(t.column("l_returnflag"), "R"))
        rev = (
            t.column("l_extendedprice").to_numpy(zero_copy_only=False)
            * (1.0 - t.column("l_discount").to_numpy(zero_copy_only=False))
        )
        # per-term cents — order-independent exact sum (see promo note)
        cents = np.copysign(np.floor(np.abs(rev * 100.0) + 0.5), rev)
        return pa.table(
            {
                "l_orderkey": pc.cast(t.column("l_orderkey"), pa.int64()),
                "rev": pa.array(cents.astype(np.int64)),
            }
        )

    li = li.map_batches(_lfilter, batch_format="pyarrow")

    orders = _read(sf_dir, "orders", ["o_orderkey", "o_custkey", "o_orderdate"])

    def _ofilter(t: pa.Table) -> pa.Table:
        ts = t.column("o_orderdate")
        keep = pc.and_(
            pc.greater_equal(ts, pa.scalar(_Q10_LO.item(), pa.timestamp("us"))),
            pc.less(ts, pa.scalar(_Q10_HI.item(), pa.timestamp("us"))),
        )
        t = t.filter(keep)
        return pa.table(
            {
                "o_orderkey": pc.cast(t.column("o_orderkey"), pa.int64()),
                "o_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
            }
        )

    orders = orders.map_batches(_ofilter, batch_format="pyarrow")

    ncpu = int(ray.cluster_resources().get("CPU", 8)) if ray.is_initialized() else 8
    j = li.join(
        orders,
        join_type="inner",
        num_partitions=max(2, ncpu // 2),
        on=("l_orderkey",),
        right_on=("o_orderkey",),
    )
    per_cust = j.groupby("o_custkey").aggregate(Sum("rev", alias_name="rev"))

    def _cents(t: pa.Table) -> pa.Table:
        return pa.table(
            {
                "c_custkey": pc.cast(t.column("o_custkey"), pa.int64()),
                "revenue_cents": pc.cast(t.column("rev"), pa.int64()),
            }
        )

    top = (
        per_cust.map_batches(_cents, batch_format="pyarrow")
        .sort(["revenue_cents", "c_custkey"], descending=[True, False])
        .limit(_Q10_TOPK)
        .take_all()  # bounded: exactly top-k rows
    )

    # dim attach for exactly the top-k ids: the predicate pushes into
    # the parquet scan (row-group pruning — "prune at the read"), so
    # the driver never holds the customer dimension, only ≤k rows
    topkeys = [int(r["c_custkey"]) for r in top]
    cust = pq.read_table(
        _p(sf_dir, "customer"),
        columns=["c_custkey", "c_name", "c_nationkey"],
        filters=[("c_custkey", "in", topkeys)],
    )
    nat = pq.read_table(_p(sf_dir, "nation"),
                        columns=["n_nationkey", "n_name"])
    cname = dict(zip(cust.column("c_custkey").to_pylist(),
                     cust.column("c_name").to_pylist()))
    cnat = dict(zip(cust.column("c_custkey").to_pylist(),
                    cust.column("c_nationkey").to_pylist()))
    nname = dict(zip(nat.column("n_nationkey").to_pylist(),
                     nat.column("n_name").to_pylist()))
    return pa.table(
        {
            "c_custkey": pa.array([r["c_custkey"] for r in top], pa.int64()),
            "c_name": pa.array([cname[r["c_custkey"]] for r in top]),
            "n_name": pa.array(
                [nname[cnat[r["c_custkey"]]] for r in top]
            ),
            "revenue_cents": pa.array(
                [r["revenue_cents"] for r in top], pa.int64()
            ),
        }
    )


SQL_RETURNED_REVENUE = f"""
WITH r AS (
  SELECT o.o_custkey AS c_custkey,
         cast(sum(cast(round(l.l_extendedprice * (1 - l.l_discount) * 100,
                             0) AS BIGINT)) AS BIGINT) AS revenue_cents
  FROM lineitem l JOIN orders o ON l.l_orderkey = o.o_orderkey
  WHERE l.l_returnflag = 'R'
    AND o.o_orderdate >= TIMESTAMP '1996-07-01'
    AND o.o_orderdate <  TIMESTAMP '1997-01-01'
  GROUP BY 1
  ORDER BY revenue_cents DESC, c_custkey
  LIMIT {_Q10_TOPK})
SELECT r.c_custkey, c.c_name, n.n_name, r.revenue_cents
FROM r JOIN customer c ON r.c_custkey = c.c_custkey
       JOIN nation n ON c.c_nationkey = n.n_nationkey
"""


# =====================================================================
# daily_churn
# =====================================================================


def _day_range(path: str) -> tuple[int, int]:
    """(min, max) day index (days since 1970-01-01) of the ts column,
    from parquet row-group statistics only — no data read. Files
    written with column statistics disabled (or with stats lacking
    min/max) get a clear error instead of an AttributeError
    (ADVICE r4); the metadata-only shape is the point of this helper,
    so it refuses rather than silently falling back to a full scan."""
    f = pq.ParquetFile(path)
    idx = f.schema_arrow.get_field_index("ts")
    los, his = [], []
    for rg in range(f.metadata.num_row_groups):
        st = f.metadata.row_group(rg).column(idx).statistics
        if st is None or not st.has_min_max:
            raise ValueError(
                f"{path}: row group {rg} has no min/max statistics for"
                " 'ts' — daily_churn's metadata-only day-range scan"
                " needs parquet column stats (rewrite the file with"
                " statistics enabled, the pyarrow default)"
            )
        los.append(np.datetime64(st.min, "us"))
        his.append(np.datetime64(st.max, "us"))
    lo = min(los).astype("datetime64[D]").astype(np.int64)
    hi = max(his).astype("datetime64[D]").astype(np.int64)
    return int(lo), int(hi)


def q_daily_churn(sf_dir: str):
    """Day-over-day retention from events: for every day d with a
    successor day in the data range, n_active = distinct users active
    on d, n_retained = also active on d+1, n_churned = n_active −
    n_retained, retained_e6 = exact truncating share — the DAU
    retention curve every activity dashboard starts with.

    Shape: the global day range comes from parquet ROW-GROUP STATS
    (metadata only — no data scan; the "prune at the read" rule);
    per-batch distinct (user, day-bit) partials → ONE user-keyed
    exchange folding each user's days into an int64 BITMASK anchored
    at the min day → per-batch popcount partials over the bounded day
    domain → one tiny day-keyed roll-up.  No day-cohort self-join
    anywhere.  IMPLEMENTED LIMIT: a single int64 mask, i.e. a day
    range < 62 days; a wider range raises ValueError.  Wider ranges
    would need ⌈days/62⌉ mask columns with the same fold — not built
    because no testdata or oracle exercises it (ADVICE r4: docstring
    now states the limit the code enforces rather than promising the
    multi-mask extension)."""
    from ray.data.aggregate import Sum

    lo, hi = _day_range(_p(sf_dir, "events"))
    if hi - lo >= 62:
        raise ValueError(
            f"daily_churn: events span {hi - lo + 1} days; the single"
            " int64 day-mask fold covers at most 62"
        )

    ds = _read(sf_dir, "events", ["user_id", "ts"])

    # day index = days since the global min day (integer; exact)
    def _partial(t: pa.Table) -> pa.Table:
        us = pc.cast(t.column("ts"), pa.int64()).to_numpy(
            zero_copy_only=False
        )
        dt = us.astype("datetime64[us]").astype("datetime64[D]")
        midx = dt.astype(np.int64) - lo
        uid = t.column("user_id").to_numpy(zero_copy_only=False)
        df = pd.DataFrame({"u": uid, "m": midx}).drop_duplicates()
        return pa.table(
            {
                "user_id": pa.array(df["u"].to_numpy(np.int64)),
                "mask": pa.array(
                    np.int64(1) << df["m"].to_numpy(np.int64)
                ),
            }
        )

    # distinct days per user need a bit-OR fold: a Sum over the
    # per-batch-distinct single-bit rows could double-count a (u, d)
    # seen in two batches — so group the single-bit rows and OR them
    # in a vectorized per-shard pass
    rows = ds.map_batches(_partial, batch_format="pyarrow")

    def _or_fold(g: pd.DataFrame) -> pd.DataFrame:
        # vectorized per-user OR: sort by user, one np.bitwise_or
        # .reduceat over the run boundaries — no per-user Python call
        u = g["user_id"].to_numpy(np.int64)
        m = g["mask"].to_numpy(np.int64)
        order = np.argsort(u, kind="mergesort")
        u, m = u[order], m[order]
        starts = np.flatnonzero(np.r_[True, u[1:] != u[:-1]])
        return pd.DataFrame(
            {
                "user_id": u[starts],
                "mask": np.bitwise_or.reduceat(m, starts),
            }
        )

    def _shard(t: pa.Table) -> pa.Table:
        u = t.column("user_id").to_numpy(zero_copy_only=False).astype(
            np.uint64
        )
        sh = ((u * np.uint64(0x9E3779B97F4A7C15)) >> np.uint64(40)) % np.uint64(64)
        return t.append_column("shard", pa.array(sh.astype(np.int64)))

    from .relational import _schema_guard

    masks = _schema_guard(
        rows.map_batches(_shard, batch_format="pyarrow")
        .groupby("shard")
        .map_groups(_or_fold, batch_format="pandas"),
        pa.schema([("user_id", pa.int64()), ("mask", pa.int64())]),
    )

    def _counts(t: pa.Table) -> pa.Table:
        mk = t.column("mask").to_numpy(zero_copy_only=False).astype(np.uint64)
        days, act, ret = [], [], []
        for m in range(62):
            bit = np.uint64(1) << np.uint64(m)
            nxt = np.uint64(1) << np.uint64(m + 1)
            a = (mk & bit) != 0
            if not a.any():
                continue
            days.append(m)
            act.append(int(a.sum()))
            ret.append(int((a & ((mk & nxt) != 0)).sum()))
        return pa.table(
            {
                "day_bit": pa.array(days, pa.int64()),
                "n_active": pa.array(act, pa.int64()),
                "n_retained": pa.array(ret, pa.int64()),
            }
        )

    sums = (
        masks.map_batches(_counts, batch_format="pyarrow")
        .groupby("day_bit")
        .aggregate(
            Sum("n_active", alias_name="n_active"),
            Sum("n_retained", alias_name="n_retained"),
        )
        .to_pandas()  # bounded by the calendar day domain
    )
    out_m, out_a, out_r = [], [], []
    for _, row in sums.sort_values("day_bit").iterrows():
        m = lo + int(row["day_bit"])
        if m >= hi:  # last day has no successor
            continue
        ym = np.datetime64(m, "D")
        out_m.append(str(ym))
        out_a.append(int(row["n_active"]))
        out_r.append(int(row["n_retained"]))
    a = np.array(out_a, np.int64)
    r = np.array(out_r, np.int64)
    return pa.table(
        {
            "day": pa.array(out_m, pa.string()),
            "n_active": pa.array(a),
            "n_retained": pa.array(r),
            "n_churned": pa.array(a - r),
            # Python-int divide for the same overflow-proofing as
            # promo_e6 (one row per day — cost is nil)
            "retained_e6": pa.array(
                [(1_000_000 * int(x)) // int(y) for x, y in zip(r, a)],
                pa.int64(),
            ),
        }
    )


SQL_DAILY_CHURN = """
WITH um AS (
  SELECT DISTINCT user_id, date_trunc('day', ts) AS d FROM events),
mx AS (SELECT max(d) AS hi FROM um),
j AS (
  SELECT a.d,
         cast(count(*) AS BIGINT) AS n_active,
         cast(sum(CASE WHEN b.user_id IS NOT NULL THEN 1 ELSE 0 END)
              AS BIGINT) AS n_retained
  FROM um a LEFT JOIN um b
    ON a.user_id = b.user_id AND b.d = a.d + INTERVAL 1 DAY
  GROUP BY a.d)
SELECT strftime(j.d, '%Y-%m-%d') AS day, n_active, n_retained,
       n_active - n_retained AS n_churned,
       cast((1000000 * n_retained) // n_active AS BIGINT) AS retained_e6
FROM j, mx WHERE j.d < mx.hi
"""


# =====================================================================
# registration
# =====================================================================

QUERIES = {
    "promo_revenue": q_promo_revenue,
    "returned_revenue": q_returned_revenue,
    "daily_churn": q_daily_churn,
}

ORACLE_SQL = {
    "promo_revenue": SQL_PROMO_REVENUE,
    "returned_revenue": SQL_RETURNED_REVENUE,
    "daily_churn": SQL_DAILY_CHURN,
}
