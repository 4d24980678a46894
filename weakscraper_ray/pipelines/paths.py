"""Round-3 continuation #13: semiring path-relaxation family — the
same K-round Bellman-Ford skeleton the green ``bfs_hops`` uses
(graph.py:600), instantiated over THREE different semirings, because
that is exactly how production graph engines (Pregel/GraphX's
``aggregateMessages``) generalize one relaxation kernel:

- ``sssp_weighted``  (min, +):    weighted shortest distance
- ``widest_path``    (max, min):  bottleneck bandwidth
- ``walk_counts``    (+, x):      number of distinct walks

Graph: the repo's derived citation graph (graph.py header — dst =
``(src * KNUTH + j) % N``, j = 1..3), with an INTEGER edge weight
``w = 1 + (src + dst) % 7`` derived arithmetically so the oracle can
rebuild the identical weighted edge set.  Seeds: ``doc_id % 97 == 0``
(shared with ``bfs_hops``).

Distributed shape (identical for all three): each round is ONE
``map_batches`` over the labelled frontier (out-edges + weights
derived arithmetically, so expansion ships no edge table) followed by
one ``groupby(node)`` combine (Min / Max / Sum respectively) over the
labelled set only.  Rounds materialize because each reach set is
consumed twice.  K rounds = exact K-hop-bounded semiring distance —
the fixed-round prefix of the full fixpoint; at scale the loop runs
until the frontier is empty, with the identical per-round plan.

Exactness: all carried values are int64 (weights, bottlenecks, walk
counts); Min/Max/Sum are associative and partitioning-independent, so
the result is bit-identical to the unrolled-walk DuckDB mirrors.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from .relational import _read

# Derived-graph parameters, numerically identical to graph.py's
# _PR_KNUTH/_PR_OUTDEG/_PR_MASS/_PR_DAMP_* (pinned equal by
# tests/test_round3l.py).  Duplicated as literals instead of imported:
# graph.py imports relational BEFORE defining them, so a module-level
# `from .graph import ...` here deadlocks when a WORKER unpickles a
# paths closure first (graph is then mid-import, names unbound).
_KNUTH = 2654435761
_OUTDEG = 3
_MASS = 10**12
_DAMP_NUM, _DAMP_DEN = 17, 20


def _dsts(src: np.ndarray, n: int) -> list[np.ndarray]:
    # out-neighbours under the modular citation rule (== graph.py
    # _derived_dsts)
    return [(src * _KNUTH + j) % n for j in range(1, _OUTDEG + 1)]


_SEED_MOD = 97
_ROUNDS = 3
#: widest-path convention: a seed's bandwidth to itself is "infinite";
#: both engines use the same integer sentinel so the row is exact.
_WIDEST_INF = 10**9


def _edge_w(src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """integer edge weight 1..7, a pure function of the endpoints."""
    return 1 + (src + dst) % 7


def _relax(sf_dir: str, combine: str, init_val: int, step):
    """shared K-round relaxation: ``step(val, w) -> new val`` per edge,
    ``combine`` in {'min','max'} per node (idempotent semirings; the
    counting semiring keeps its own exact-length-frontier loop in
    :func:`q_walk_counts`).

    Runs on the BSP substrate (``state/bsp.py``; see rounds.py
    ``q_mis_luby``): the reach vector lives partitioned in P
    persistent actors (sentinel = unreached), each round is one
    scatter→fold superstep relaxing along out-edges — the identical
    Min/Max fold the Dataset ``union → groupby`` form computed, at
    ~10 ms per round instead of ~1.5 s (sssp 6.3 s → ~1.5 s at
    sf0.1); mirrors unchanged."""
    import ray as _ray

    from ..state.bsp import BSPGraph, bucket

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()  # parquet-metadata count

    sentinel = np.iinfo(np.int64).max if combine == "min" else np.iinfo(np.int64).min
    fold_ufunc = {"min": np.minimum, "max": np.maximum}[combine]

    def _init(s, pid, P, n=n, init_val=init_val, sentinel=sentinel):
        s["nodes"] = np.arange(pid, n, P, dtype=np.int64)
        val = np.full(len(s["nodes"]), sentinel, dtype=np.int64)
        val[s["nodes"] % _SEED_MOD == 0] = init_val
        s["val"] = val

    def _scatter(s, pid, P, n=n, sentinel=sentinel):
        reached = s["val"] != sentinel
        src = s["nodes"][reached]
        val = s["val"][reached]
        nodes, vals = [], []
        for d in _dsts(src, n):
            nodes.append(d)
            vals.append(step(val, _edge_w(src, d)))
        dest = np.concatenate(nodes) if nodes else np.array([], np.int64)
        out = (
            np.concatenate(vals).astype(np.int64)
            if vals
            else np.array([], np.int64)
        )
        return bucket(dest, P, {"val": out})

    def _fold(s, pid, P, payloads, fold_ufunc=fold_ufunc, sentinel=sentinel):
        arr = np.full(len(s["nodes"]), sentinel, np.int64)
        for dest, pl in payloads:
            getattr(fold_ufunc, "at")(arr, dest // P, pl["val"])
        hit = arr != sentinel
        cur = s["val"]
        # combine with the existing reach value (union → groupby agg)
        cur[hit] = np.where(
            cur[hit] == sentinel, arr[hit], fold_ufunc(cur[hit], arr[hit])
        )
        return int((cur != sentinel).sum())

    def _emit(s, pid, P, sentinel=sentinel):
        hit = s["val"] != sentinel
        return pa.table(
            {
                "node": pa.array(s["nodes"][hit], pa.int64()),
                "val": pa.array(s["val"][hit], pa.int64()),
            }
        )

    with BSPGraph() as g:
        g.run(_init)
        for _ in range(_ROUNDS):
            g.exchange(_scatter, _fold)
        ds = g.emit_dataset(_emit)
    return ds


def q_sssp_weighted(sf_dir: str):
    """(min, +) semiring: exact 3-hop-bounded weighted shortest
    distance from the seed set.  See module docstring."""
    out = _relax(sf_dir, "min", 0, lambda v, w: v + w)
    return out.map_batches(
        lambda t: t.rename_columns(["node", "dist"]), batch_format="pyarrow"
    )


def q_widest_path(sf_dir: str):
    """(max, min) semiring: bottleneck bandwidth — the widest path's
    narrowest edge — from the seed set, 3-hop-bounded."""
    out = _relax(
        sf_dir, "max", _WIDEST_INF, lambda v, w: np.minimum(v, w)
    )
    return out.map_batches(
        lambda t: t.rename_columns(["node", "bandwidth"]),
        batch_format="pyarrow",
    )


def q_walk_counts(sf_dir: str):
    """counting semiring: number of distinct walks of length <= 3 from
    ANY seed to each node (the empty walk counts each seed once) —
    the path-multiplicity pass of influence/contamination audits.

    Unlike min/max, Sum is NOT idempotent, so the union-with-reach
    relaxation of :func:`_relax` would double-count shorter walks.
    The counting recursion instead carries EXACT-length frontiers
    (frontier_{k+1}[v] = sum over in-edges of frontier_k[u]) and
    accumulates them, combining once at the end.

    Runs on the BSP substrate (``state/bsp.py``; see :func:`_relax`):
    frontier and accumulator vectors live partitioned in P persistent
    actors; each length step is one scatter→fold superstep with an
    integer Sum fold — exact, order-independent, mirror unchanged
    (7.4 s → ~1.5 s at sf0.1)."""
    import ray as _ray

    from ..state.bsp import BSPGraph, bucket

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()

    def _init(s, pid, P, n=n):
        s["nodes"] = np.arange(pid, n, P, dtype=np.int64)
        s["front"] = (s["nodes"] % _SEED_MOD == 0).astype(np.int64)
        s["acc"] = s["front"].copy()

    def _scatter(s, pid, P, n=n):
        hit = s["front"] > 0
        src = s["nodes"][hit]
        val = s["front"][hit]
        dsts = _dsts(src, n)
        return bucket(
            np.concatenate(dsts), P, {"val": np.concatenate([val] * len(dsts))}
        )

    def _fold(s, pid, P, payloads):
        nxt = np.zeros(len(s["nodes"]), dtype=np.int64)
        for dest, pl in payloads:
            np.add.at(nxt, dest // P, pl["val"])
        s["front"] = nxt
        s["acc"] += nxt
        return None

    def _emit(s, pid, P):
        hit = s["acc"] > 0
        return pa.table(
            {
                "node": pa.array(s["nodes"][hit], pa.int64()),
                "n_walks": pa.array(s["acc"][hit], pa.int64()),
            }
        )

    with BSPGraph() as g:
        g.run(_init)
        for _ in range(_ROUNDS):
            g.exchange(_scatter, _fold)
        ds = g.emit_dataset(_emit)
    return ds


def q_ppr_seeded(sf_dir: str):
    """Personalized PageRank (topic-sensitive PageRank, Haveliwala
    2002): the damped-walk stationary mass when EVERY teleport returns
    to the seed set (doc_id % 97 == 0) instead of the uniform vector —
    the seed-proximity score crawl curation uses to rank pages near
    trusted seeds.  Same integer scheme as ``pagerank``
    (graph.py:71 — mass 1e12, d = 17/20, per-edge ``(r*17)//60``),
    3 unrolled iterations; teleport is an arithmetic function of
    doc_id, so no seed table ships with the tasks.  One exchange per
    iteration; all-integer → partitioning-independent and hash-exact
    vs the chained-CTE mirror.

    Runs on the BSP substrate (``state/bsp.py``; see ``q_hits``): the
    rank vector lives partitioned in P persistent actors; one
    scatter→fold superstep per iteration (integer Sum fold + local
    teleport base), 6.3 s → ~1.5 s at sf0.1; mirror unchanged."""
    import ray as _ray

    from ..state.bsp import BSPGraph, bucket

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()
    ns = (n + _SEED_MOD - 1) // _SEED_MOD  # seeds = ids ≡ 0 (mod 97)
    per_edge_den = _DAMP_DEN * _OUTDEG
    tele = ((_DAMP_DEN - _DAMP_NUM) * _MASS) // (_DAMP_DEN * ns)
    r0 = _MASS // ns

    def _init(s, pid, P, n=n, r0=r0):
        s["nodes"] = np.arange(pid, n, P, dtype=np.int64)
        s["rank"] = np.where(s["nodes"] % _SEED_MOD == 0, r0, 0).astype(
            np.int64
        )

    def _scatter(s, pid, P, n=n, den=per_edge_den):
        src = s["nodes"]
        c = (s["rank"] * _DAMP_NUM) // den
        dsts = _dsts(src, n)
        return bucket(
            np.concatenate(dsts), P, {"c": np.concatenate([c] * len(dsts))}
        )

    def _fold(s, pid, P, payloads, tele=tele):
        gath = np.zeros(len(s["nodes"]), dtype=np.int64)
        for dest, pl in payloads:
            np.add.at(gath, dest // P, pl["c"])
        base = np.where(s["nodes"] % _SEED_MOD == 0, tele, 0).astype(np.int64)
        s["rank"] = base + gath
        return None

    def _emit(s, pid, P):
        return pa.table(
            {
                "doc_id": pa.array(s["nodes"], pa.int64()),
                "ppr_e12": pa.array(s["rank"], pa.int64()),
            }
        )

    with BSPGraph() as g:
        g.run(_init)
        for _ in range(_ROUNDS):
            g.exchange(_scatter, _fold)
        ds = g.emit_dataset(_emit)
    return ds


def _sql_ppr() -> str:
    per_edge_den = _DAMP_DEN * _OUTDEG
    tele_expr = (
        f"(CASE WHEN n.doc_id % {_SEED_MOD} = 0 THEN "
        f"{(_DAMP_DEN - _DAMP_NUM) * _MASS}"
        f" // ({_DAMP_DEN} * ns.k) ELSE 0 END)"
    )
    ctes = [
        "nodes AS (SELECT doc_id FROM documents)",
        "p AS (SELECT cast(count(*) AS BIGINT) AS n FROM nodes)",
        f"ns AS (SELECT cast(count(*) AS BIGINT) AS k FROM nodes"
        f" WHERE doc_id % {_SEED_MOD} = 0)",
        f"edges AS (SELECT n.doc_id AS src,"
        f" (n.doc_id * {_KNUTH} + j.j) % p.n AS dst"
        f" FROM nodes n, p, range(1, {_OUTDEG + 1}) j(j))",
        f"r0 AS (SELECT doc_id, CASE WHEN doc_id % {_SEED_MOD} = 0"
        f" THEN {_MASS} // ns.k ELSE 0 END AS pr FROM nodes, ns)",
    ]
    prev = "r0"
    for i in range(1, _ROUNDS + 1):
        ctes.append(
            f"s{i} AS (SELECT e.dst AS doc_id,"
            f" sum((r.pr * {_DAMP_NUM}) // {per_edge_den}) AS s"
            f" FROM edges e JOIN {prev} r ON r.doc_id = e.src GROUP BY e.dst)"
        )
        ctes.append(
            f"r{i} AS (SELECT n.doc_id,"
            f" cast({tele_expr} + coalesce(s.s, 0) AS BIGINT) AS pr"
            f" FROM nodes n CROSS JOIN ns LEFT JOIN s{i} s USING (doc_id))"
        )
        prev = f"r{i}"
    return (
        "WITH "
        + ",\n".join(ctes)
        + f"\nSELECT doc_id, pr AS ppr_e12 FROM {prev}"
    )


def _walks_cte() -> str:
    """shared unrolled-walk CTE prefix: the weighted edge set and the
    per-round relaxation tables d0..d3 carrying (node, dist, band)."""
    return f"""
WITH nodes AS (SELECT doc_id FROM documents),
p AS (SELECT cast(count(*) AS BIGINT) AS n FROM nodes),
e AS (SELECT src, dst, 1 + (src + dst) % 7 AS w
      FROM (SELECT n.doc_id AS src,
                   (n.doc_id * {_KNUTH} + j.j) % p.n AS dst
            FROM nodes n, p, range(1, {_OUTDEG + 1}) j(j))),
d0 AS (SELECT doc_id AS node, cast(0 AS BIGINT) AS dist,
              cast({_WIDEST_INF} AS BIGINT) AS band
       FROM nodes WHERE doc_id % {_SEED_MOD} = 0),
d1 AS (SELECT e.dst AS node, d0.dist + e.w AS dist,
              least(d0.band, e.w) AS band
       FROM d0 JOIN e ON e.src = d0.node),
d2 AS (SELECT e.dst AS node, d1.dist + e.w AS dist,
              least(d1.band, e.w) AS band
       FROM d1 JOIN e ON e.src = d1.node),
d3 AS (SELECT e.dst AS node, d2.dist + e.w AS dist,
              least(d2.band, e.w) AS band
       FROM d2 JOIN e ON e.src = d2.node),
allw AS (SELECT * FROM d0 UNION ALL SELECT * FROM d1
         UNION ALL SELECT * FROM d2 UNION ALL SELECT * FROM d3)
"""


SQL_SSSP = (
    _walks_cte()
    + "SELECT node, min(dist) AS dist FROM allw GROUP BY node"
)

SQL_WIDEST = (
    _walks_cte()
    + "SELECT node, max(band) AS bandwidth FROM allw GROUP BY node"
)

SQL_WALK_COUNTS = (
    _walks_cte()
    + "SELECT node, cast(count(*) AS BIGINT) AS n_walks "
    "FROM allw GROUP BY node"
)


QUERIES = {
    "sssp_weighted": q_sssp_weighted,
    "widest_path": q_widest_path,
    "walk_counts": q_walk_counts,
    "ppr_seeded": q_ppr_seeded,
}

ORACLE_SQL = {
    "sssp_weighted": SQL_SSSP,
    "widest_path": SQL_WIDEST,
    "walk_counts": SQL_WALK_COUNTS,
    "ppr_seeded": _sql_ppr(),
}
