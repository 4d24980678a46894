"""Round-3 continuation #13b: round-synchronous distributed-algorithm
family over the derived citation graph — the three classic
symmetry-breaking / sketch-merge algorithms whose whole point is that
they run in O(log n) BSP rounds of pure message aggregation (no locks,
no sequential scan), each a ``queries()`` entry with a DuckDB oracle:

- ``mis_luby``         Luby's maximal-independent-set rounds (1986) —
                       the distributed scheduling/symmetry-breaking
                       primitive
- ``greedy_matching``  handshake (mutual-proposal) weighted matching —
                       one round of it is the classic parallel matching
                       step (Preis/Manne-Bisseling idiom)
- ``hyperball_reach``  HyperBall (Boldi-Vigna 2013): per-node 2-hop
                       neighborhood-size estimate by merging hash-exact
                       HyperLogLog registers along out-edges — the
                       algorithm behind the "four degrees of
                       separation" measurement

Graph: the repo's derived citation rule (graph.py header), symmetrized
and self-loop-free for MIS/matching, raw directed for HyperBall;
in-neighbors enumerate arithmetically via the modular inverse of the
prime Knuth constant (the ``hits`` trick, graph.py:1117), so NO edge
table ever ships.

Exactness: priorities and registers derive from
``md5_number_lower(printf(...))`` (the repo's hash-exact idiom);
every per-round decision is expressed as a pure integer aggregate —
see the odd/even encoding below — so K unrolled rounds are
bit-identical to the chained-CTE mirrors under any partitioning.

The aggregate-only trick (no high-cardinality ``map_groups``
anywhere): to test "is my priority strictly below every active
neighbour's?", a node contributes its OWN priority encoded ``2p+1``
and every neighbour's as ``2p``; after one ``groupby(node).Min`` the
node is selected iff the minimum is ODD (2p_v+1 < 2p_u  ⟺  p_v < p_u,
exactly strict).  Matching packs its argmin as ``w·2^40 + candidate``
(lexicographic (w, v) order in one int64) plus a Max(flag) that keeps
inactive receivers from proposing.  Ties in the raw md5 priorities
select NOBODY on either engine (NOT EXISTS p_u <= p_v), which keeps
the set independent and the mirror exact without a tie-break column.

Rounds: K=3 for MIS/matching (the fixed-round prefix of the fixpoint;
Luby needs O(log n) expected rounds to finish — at scale the loop
runs until the active set is empty, same per-round plan), 2 for
HyperBall (radius-2 neighborhoods).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pyarrow as pa

from .relational import _read

# derived-graph literals (== graph.py's _PR_KNUTH/_PR_OUTDEG; pinned by
# tests/test_round3l.py for paths.py — same values, same reason: a
# module-level `from .graph import ...` deadlocks worker unpickling)
_KNUTH = 2654435761
_OUTDEG = 3
#: priority modulus (2^61 - 1): 2p+1 stays inside int64
_PRI_MOD = (1 << 61) - 1
_ROUNDS = 3
#: matching argmin packing: key = w * 2^40 + candidate (w <= 7, so the
#: packed key is < 2^43; at >2^40 nodes widen the shift)
_PACK = 1 << 40
_SENTINEL = 1 << 45


def _md5_u64(s: str) -> int:
    return int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")


def _pri_np(round_no: int, ids: np.ndarray) -> np.ndarray:
    return np.array(
        [_md5_u64(f"{round_no}|{int(v)}") % _PRI_MOD for v in ids],
        dtype=np.int64,
    )


def _nbrs(ids: np.ndarray, n: int, kinv: int) -> list[np.ndarray]:
    """all ≤6 arithmetic neighbours (3 out + 3 in) per node — the
    symmetrized adjacency, enumerated locally."""
    outs = [(ids * _KNUTH + j) % n for j in range(1, _OUTDEG + 1)]
    ins = [((ids - j) * kinv) % n for j in range(1, _OUTDEG + 1)]
    return outs + ins


def _edges_cte() -> str:
    """shared SQL prefix: node set + symmetrized self-loop-free edges."""
    return f"""
WITH nodes AS (SELECT doc_id FROM documents),
p AS (SELECT cast(count(*) AS BIGINT) AS n FROM nodes),
base AS (SELECT n.doc_id AS src, (n.doc_id * {_KNUTH} + j.j) % p.n AS dst
         FROM nodes n, p, range(1, {_OUTDEG + 1}) j(j)),
e AS (SELECT src, dst FROM base WHERE src <> dst
      UNION
      SELECT dst, src FROM base WHERE src <> dst)
"""


# ------------------------------------------------------------ Luby MIS

def q_mis_luby(sf_dir: str):
    """Luby's MIS, 3 rounds (module docstring).  Per round: fresh md5
    priorities; a node joins the MIS iff its priority is strictly
    below every ACTIVE neighbour's (odd/even Min-encoding — one
    exchange); selected nodes and their whole neighbourhoods leave the
    active set (one more exchange).  Output (node, mis_round);
    independence is pinned in tests.

    Runs on the BSP substrate (``state/bsp.py``): the active set and
    per-round priorities live in P persistent partition actors (node
    owned by ``id % P``), each superstep is scatter→fold with message
    refs flowing actor→actor — the same 2 exchanges per round the
    Dataset form paid, at ~10 ms instead of ~1 s of hash-shuffle
    operator startup each (10.4 s → ~1 s at sf0.1).  The fold is a
    Min over incoming evens vs the own odd row — order-independent,
    so the result is partition-count-independent and the DuckDB
    mirror is unchanged by the port."""
    import ray as _ray

    from ..state.bsp import BSPGraph, bucket

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()
    kinv = pow(_KNUTH, -1, n)

    def _init(s, pid, P, n=n):
        s["nodes"] = np.arange(pid, n, P, dtype=np.int64)  # owner = id % P
        s["active"] = np.ones(len(s["nodes"]), dtype=bool)
        s["picked"] = []  # (round, selected ids) per round

    with BSPGraph() as g:
        P = g.P
        g.run(_init)
        for r in range(1, _ROUNDS + 1):

            def _scatter_pri(s, pid, P, r=r, n=n, kinv=kinv):
                v = s["nodes"][s["active"]]
                p = _pri_np(r, v)
                s["pri"] = p  # consumed by the fold on this actor
                dest, val = [], []
                for u in _nbrs(v, n, kinv):
                    m = u != v  # drop self-loops
                    dest.append(u[m])
                    val.append((2 * p)[m])  # neighbour rows: even
                dest = np.concatenate(dest) if dest else np.array([], np.int64)
                val = np.concatenate(val) if val else np.array([], np.int64)
                return bucket(dest, P, {"val": val})

            def _fold_sel(s, pid, P, payloads, r=r):
                act = s["active"]
                v = s["nodes"][act]
                p = s.pop("pri")
                best = 2 * p + 1  # own row: odd
                if payloads:
                    dest = np.concatenate([d for d, _ in payloads])
                    val = np.concatenate([pl["val"] for _, pl in payloads])
                    arr = np.full(len(s["nodes"]), np.iinfo(np.int64).max, np.int64)
                    np.minimum.at(arr, dest // P, val)
                    best = np.minimum(best, arr[act])
                sel = v[best % 2 == 1]  # odd min ⟺ strictly smallest pri
                s["sel"] = sel
                s["picked"].append((r, sel))
                return len(sel)

            g.exchange(_scatter_pri, _fold_sel)

            def _scatter_rm(s, pid, P, n=n, kinv=kinv):
                v = s["sel"]
                nbr = [u[u != v] for u in _nbrs(v, n, kinv)]
                dest = (
                    np.unique(np.concatenate(nbr))
                    if nbr and len(v)
                    else np.array([], np.int64)
                )
                return bucket(dest, P, {})

            def _fold_rm(s, pid, P, payloads):
                s["active"][s.pop("sel") // P] = False
                for dest, _ in payloads:
                    s["active"][dest // P] = False

            g.exchange(_scatter_rm, _fold_rm)

        def _emit(s, pid, P):
            node = [sel for _, sel in s["picked"]]
            rnd = [np.full(len(sel), r, np.int64) for r, sel in s["picked"]]
            return pa.table(
                {
                    "node": pa.array(
                        np.concatenate(node) if node else np.array([], np.int64),
                        pa.int64(),
                    ),
                    "mis_round": pa.array(
                        np.concatenate(rnd) if rnd else np.array([], np.int64),
                        pa.int64(),
                    ),
                }
            )

        ds = g.emit_dataset(_emit)
    return ds


def _sql_mis() -> str:
    ctes = [
        "a1 AS (SELECT doc_id AS node FROM nodes)",
    ]
    for r in range(1, _ROUNDS + 1):
        ctes.append(
            f"p{r} AS (SELECT node,"
            f" md5_number_lower(printf('{r}|%d', node)) % {_PRI_MOD} AS p"
            f" FROM a{r})"
        )
        ctes.append(
            f"s{r} AS (SELECT v.node FROM p{r} v WHERE NOT EXISTS ("
            f"SELECT 1 FROM e JOIN p{r} u ON u.node = e.dst"
            f" WHERE e.src = v.node AND u.p <= v.p))"
        )
        if r < _ROUNDS:
            ctes.append(
                f"rm{r} AS (SELECT node FROM s{r} UNION"
                f" SELECT e.dst FROM e JOIN s{r} s ON s.node = e.src)"
            )
            ctes.append(
                f"a{r + 1} AS (SELECT node FROM a{r}"
                f" EXCEPT SELECT node FROM rm{r})"
            )
    sel = " UNION ALL ".join(
        f"SELECT node, cast({r} AS BIGINT) AS mis_round FROM s{r}"
        for r in range(1, _ROUNDS + 1)
    )
    return _edges_cte() + ", " + ",\n".join(ctes) + "\n" + sel


# ----------------------------------------------------------- matching

def q_greedy_matching(sf_dir: str):
    """Handshake weighted matching, 3 rounds: every active node
    proposes to its (w, id)-minimal active neighbour (argmin packed as
    ``w·2^40 + candidate`` so ONE Min aggregate resolves it; a Max
    own-flag keeps inactive receivers silent); an edge matches iff the
    proposals are mutual (its canonical pair key receives exactly two
    rows); matched endpoints retire.  Edge weight ``1 + (u+v) % 7`` is
    symmetric and arithmetic.  Output (node_a, node_b, w,
    match_round); partner-uniqueness is pinned in tests.

    Runs on the BSP substrate (``state/bsp.py``; see ``q_mis_luby``):
    3 supersteps per round — advertise→argmin (receiver keeps the Min
    packed key iff it is itself active), proposal→mutuality (each
    canonical pair routed to its ``a``-owner; a pair matches iff
    exactly two proposals arrive), retire-matched — identical
    aggregates to the Dataset-exchange form it replaces (11.3 s →
    ~1 s at sf0.1), DuckDB mirror unchanged."""
    import ray as _ray

    from ..state.bsp import BSPGraph, bucket

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()
    kinv = pow(_KNUTH, -1, n)

    def _init(s, pid, P, n=n):
        s["nodes"] = np.arange(pid, n, P, dtype=np.int64)
        s["active"] = np.ones(len(s["nodes"]), dtype=bool)
        s["matched"] = []  # (round, a ids, b ids)

    with BSPGraph() as g:
        P = g.P
        g.run(_init)
        for r in range(1, _ROUNDS + 1):

            def _scatter_adv(s, pid, P, n=n, kinv=kinv):
                v = s["nodes"][s["active"]]
                dest, key = [], []
                for u in _nbrs(v, n, kinv):
                    m = u != v
                    w = 1 + (v + u) % 7
                    dest.append(u[m])  # sender v advertises itself to u
                    key.append((w * _PACK + v)[m])
                dest = np.concatenate(dest) if dest else np.array([], np.int64)
                key = np.concatenate(key) if key else np.array([], np.int64)
                return bucket(dest, P, {"key": key})

            def _fold_prop(s, pid, P, payloads):
                arr = np.full(len(s["nodes"]), _SENTINEL, np.int64)
                if payloads:
                    dest = np.concatenate([d for d, _ in payloads])
                    key = np.concatenate([pl["key"] for _, pl in payloads])
                    np.minimum.at(arr, dest // P, key)
                # active receivers with >=1 advertisement propose to the
                # (w, id)-minimal advertiser (the packed-Min argmin)
                ok = s["active"] & (arr < _SENTINEL)
                s["prop"] = (s["nodes"][ok], arr[ok] % _PACK)
                return int(ok.sum())

            g.exchange(_scatter_adv, _fold_prop)

            def _scatter_pair(s, pid, P):
                u, c = s.pop("prop")
                a = np.minimum(u, c)
                b = np.maximum(u, c)
                return bucket(a, P, {"b": b})

            def _fold_match(s, pid, P, payloads, r=r):
                if payloads:
                    a = np.concatenate([d for d, _ in payloads])
                    b = np.concatenate([pl["b"] for _, pl in payloads])
                    pair = a * (np.int64(1) << 32) + b  # n < 2^21 « 2^32
                    up, cnt = np.unique(pair, return_counts=True)
                    hit = up[cnt == 2]  # mutual ⟺ exactly two proposals
                    ma = (hit >> 32).astype(np.int64)
                    mb = (hit & ((1 << 32) - 1)).astype(np.int64)
                else:
                    ma = mb = np.array([], np.int64)
                s["matched"].append((r, ma, mb))
                s["gone"] = np.concatenate([ma, mb])
                return len(ma)

            g.exchange(_scatter_pair, _fold_match)

            def _scatter_retire(s, pid, P):
                return bucket(s.pop("gone"), P, {})

            def _fold_retire(s, pid, P, payloads):
                for dest, _ in payloads:
                    s["active"][dest // P] = False

            g.exchange(_scatter_retire, _fold_retire)

        def _emit(s, pid, P):
            a = [ma for _, ma, _ in s["matched"]]
            b = [mb for _, _, mb in s["matched"]]
            rnd = [np.full(len(ma), r, np.int64) for r, ma, _ in s["matched"]]
            ca = np.concatenate(a) if a else np.array([], np.int64)
            cb = np.concatenate(b) if b else np.array([], np.int64)
            return pa.table(
                {
                    "node_a": pa.array(ca, pa.int64()),
                    "node_b": pa.array(cb, pa.int64()),
                    "w": pa.array(1 + (ca + cb) % 7, pa.int64()),
                    "match_round": pa.array(
                        np.concatenate(rnd) if rnd else np.array([], np.int64),
                        pa.int64(),
                    ),
                }
            )

        ds = g.emit_dataset(_emit)
    return ds


def _sql_matching() -> str:
    ctes = ["a1 AS (SELECT doc_id AS node FROM nodes)"]
    for r in range(1, _ROUNDS + 1):
        ctes.append(
            f"c{r} AS (SELECT e.src AS u, e.dst AS v,"
            f" 1 + (e.src + e.dst) % 7 AS w"
            f" FROM e JOIN a{r} x ON x.node = e.src"
            f" JOIN a{r} y ON y.node = e.dst)"
        )
        ctes.append(
            f"pr{r} AS (SELECT u, v, w FROM ("
            f"SELECT u, v, w, row_number() OVER"
            f" (PARTITION BY u ORDER BY w, v) AS rn FROM c{r}) WHERE rn = 1)"
        )
        ctes.append(
            f"m{r} AS (SELECT p1.u AS a, p1.v AS b, p1.w"
            f" FROM pr{r} p1 JOIN pr{r} p2"
            f" ON p1.v = p2.u AND p2.v = p1.u AND p1.u < p2.u)"
        )
        if r < _ROUNDS:
            ctes.append(
                f"a{r + 1} AS (SELECT node FROM a{r} EXCEPT"
                f" (SELECT a FROM m{r} UNION SELECT b FROM m{r}))"
            )
    sel = " UNION ALL ".join(
        f"SELECT a AS node_a, b AS node_b, cast(w AS BIGINT) AS w,"
        f" cast({r} AS BIGINT) AS match_round FROM m{r}"
        for r in range(1, _ROUNDS + 1)
    )
    return _edges_cte() + ", " + ",\n".join(ctes) + "\n" + sel


# ----------------------------------------------------------- HyperBall

_HB_M = 64  # registers per node
_HB_R = 20  # rank bits
_HB_SCALE = _HB_R + 1
#: Flajolet alpha_64 = 0.7213/(1 + 1.079/64), e6-quantized literal
_HB_ALPHA_E6 = 709_375
_HB_ROUNDS = 2
#: integer numerator of the raw estimate: alpha*m^2*2^(R+1)
_HB_NUM = _HB_ALPHA_E6 * _HB_M * _HB_M * (1 << _HB_SCALE)


def _bitlen_u64(v: np.ndarray) -> np.ndarray:
    """vectorized bit_length (same shift ladder as membership._hll_rho,
    duplicated to keep this module worker-unpickle-safe)."""
    bl = np.zeros(len(v), dtype=np.int64)
    x = v.astype(np.uint64).copy()
    for shift in (32, 16, 8, 4, 2, 1):
        big = x >= (np.uint64(1) << np.uint64(shift))
        bl[big] += shift
        x[big] >>= np.uint64(shift)
    bl[v > 0] += 1
    return bl


def q_hyperball_reach(sf_dir: str):
    """HyperBall (Boldi-Vigna 2013): each node keeps an m=64-register
    HyperLogLog of the nodes it can reach; round r+1 Max-merges every
    out-neighbour's registers into its own (reach_{r+1}(v) = {v} ∪
    ⋃_{u∈out(v)} reach_r(u)).  After 2 rounds the register set
    describes the radius-2 out-neighborhood; the raw estimate is the
    same all-integer formula as ``hll_exact`` (membership.py) at
    m=64.  Registers are sparse (≤13 reachable nodes at radius 2), so
    a round's exchange carries ≤13 rows/node, Max-combined per
    (node, bucket); the per-node harmonic sum folds with ONE
    Sum-aggregate via S = m·2^(R+1) + Σ_present(2^(R+1-rho) - 2^(R+1))
    — no per-node group loop anywhere.  Output (node, nonzero_regs,
    sum_scaled, est_raw), hash-exact vs the unrolled mirror.

    Runs on the BSP substrate (``state/bsp.py``; see ``q_mis_luby``):
    each partition holds a DENSE (owned-nodes × m) uint8 rho matrix
    (0 = register absent; present rhos are ≥ 1), the exact dense form
    of the sparse register set — HyperBall's own memory layout.  A
    round scatters every node's present registers to its in-edge
    sources (arithmetically enumerated) and Max-folds them in place:
    one superstep per round instead of a (node, bucket)-keyed
    exchange (7.5 s → ~1.5 s at sf0.1); mirror unchanged."""
    import ray as _ray

    from ..state.bsp import BSPGraph, bucket as _bucket

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()
    kinv = pow(_KNUTH, -1, n)

    def _init(s, pid, P, n=n):
        s["nodes"] = np.arange(pid, n, P, dtype=np.int64)
        v = s["nodes"]
        h = np.array([_md5_u64(f"h|{int(x)}") for x in v], dtype=np.uint64)
        bkt = (h % np.uint64(_HB_M)).astype(np.int64)
        rest = (h >> np.uint64(6)) % (np.uint64(1) << np.uint64(_HB_R))
        rho = np.where(
            rest > 0, _HB_R - _bitlen_u64(rest) + 1, _HB_R + 1
        ).astype(np.uint8)
        regs = np.zeros((len(v), _HB_M), dtype=np.uint8)
        regs[np.arange(len(v)), bkt] = rho
        s["regs"] = regs

    def _scatter(s, pid, P, n=n, kinv=kinv):
        u = s["nodes"]
        row, col = np.nonzero(s["regs"])
        rho = s["regs"][row, col].astype(np.int64)
        src = u[row]
        dest, bs, rs = [], [], []
        for j in range(1, _OUTDEG + 1):
            # u's registers flow to every v with u ∈ out(v):
            # v = (u - j) * K^-1 mod n  (self-loops flow to self, a no-op)
            dest.append(((src - j) * kinv) % n)
            bs.append(col)
            rs.append(rho)
        return _bucket(
            np.concatenate(dest),
            P,
            {"b": np.concatenate(bs), "r": np.concatenate(rs)},
        )

    def _fold(s, pid, P, payloads):
        regs = s["regs"]
        for dest, pl in payloads:
            flat = (dest // P) * _HB_M + pl["b"]
            np.maximum.at(regs.reshape(-1), flat, pl["r"].astype(np.uint8))
        return None

    def _emit(s, pid, P):
        regs = s["regs"].astype(np.int64)
        present = regs > 0
        nz = present.sum(axis=1).astype(np.int64)
        term = np.where(
            present, (np.int64(1) << (_HB_SCALE - regs)) - (1 << _HB_SCALE), 0
        )
        t2 = term.sum(axis=1)
        ssum = _HB_M * (1 << _HB_SCALE) + t2
        return pa.table(
            {
                "node": pa.array(s["nodes"], pa.int64()),
                "nonzero_regs": pa.array(nz, pa.int64()),
                "sum_scaled": pa.array(ssum.astype(np.int64)),
                "est_raw": pa.array(
                    (_HB_NUM // (10**6 * ssum)).astype(np.int64)
                ),
            }
        )

    with BSPGraph() as g:
        g.run(_init)
        for _ in range(_HB_ROUNDS):
            g.exchange(_scatter, _fold)
        ds = g.emit_dataset(_emit)
    return ds


def _sql_hyperball() -> str:
    rounds = []
    prev = "r0"
    for i in range(1, _HB_ROUNDS + 1):
        rounds.append(
            f"g{i} AS (SELECT node, bucket, rho FROM {prev}"
            f" UNION ALL SELECT ed.src AS node, r.bucket, r.rho"
            f" FROM ed JOIN {prev} r ON r.node = ed.dst)"
        )
        rounds.append(
            f"r{i} AS (SELECT node, bucket, max(rho) AS rho"
            f" FROM g{i} GROUP BY node, bucket)"
        )
        prev = f"r{i}"
    return f"""
WITH nodes AS (SELECT doc_id FROM documents),
p AS (SELECT cast(count(*) AS BIGINT) AS n FROM nodes),
ed AS (SELECT n.doc_id AS src, (n.doc_id * {_KNUTH} + j.j) % p.n AS dst
       FROM nodes n, p, range(1, {_OUTDEG + 1}) j(j)),
h0 AS (SELECT doc_id AS node,
              md5_number_lower(printf('h|%d', doc_id)) AS h
       FROM nodes),
rest AS (SELECT node, cast(h % {_HB_M} AS BIGINT) AS bucket,
                cast((h // {_HB_M}) % {1 << _HB_R} AS BIGINT) AS rest
         FROM h0),
r0 AS (SELECT node, bucket,
              CASE WHEN rest = 0 THEN {_HB_R + 1}
                   ELSE {_HB_R} - length(printf('%b', rest)) + 1 END AS rho
       FROM rest),
{", ".join(rounds)},
s AS (SELECT node, cast(count(*) AS BIGINT) AS nz,
             cast(sum((cast(1 AS BIGINT) << ({_HB_SCALE} - rho))
                      - {1 << _HB_SCALE}) AS BIGINT) AS t2
      FROM {prev} GROUP BY node)
SELECT node,
       nz AS nonzero_regs,
       cast({_HB_M * (1 << _HB_SCALE)} + t2 AS BIGINT) AS sum_scaled,
       cast({_HB_NUM} // (1000000 *
            cast({_HB_M * (1 << _HB_SCALE)} + t2 AS HUGEINT)) AS BIGINT)
           AS est_raw
FROM s
"""




# ------------------------------------------------------------- k-truss

#: truss threshold: every surviving edge sits in >= _TRUSS_SUP triangles
_TRUSS_SUP = 2
_TRUSS_ROUNDS = 3
#: planted dense pockets: nodes sharing doc_id // _TRUSS_BLK form a
#: clique (a K4 is a 4-truss, so the peel RETAINS the planted blocks
#: while stripping the triangle-sparse modular noise — without them
#: the derived graph's truss is empty, measured: 3000->160->0 edges)
_TRUSS_BLK = 4


def _block_peers(v: np.ndarray, n: int) -> list[np.ndarray]:
    """the node's K4 block peers; a trailing partial block simply has
    fewer peers — callers mask with ``< n`` (and ``!= v``)."""
    base = (v // _TRUSS_BLK) * _TRUSS_BLK
    return [base + j for j in range(_TRUSS_BLK)]


def q_k_truss(sf_dir: str):
    """k-truss peeling (Cohen 2008), k = 4 (support >= 2), 3 rounds —
    the EDGE-centric density peel that complements the node-centric
    ``kcore``: each round recomputes every live edge's triangle
    support and drops edges below threshold.  Candidate common
    neighbours of (a, b) always come from the ARITHMETIC full
    neighbourhood (<= 12 slots, no wedge join); liveness checks probe
    a broadcast sorted array of packed live edges (bounded by 3n —
    at 10^12 nodes this becomes the wedge-join the ``triangles``
    operator demonstrates, same peel loop).  Output: surviving
    canonical edges (node_a, node_b).  Hash-exact vs the unrolled
    triangle-join mirror."""
    import ray
    from ray.data.aggregate import Count

    ds0 = _read(sf_dir, "documents", ["doc_id"])
    n = ds0.count()
    kinv = pow(_KNUTH, -1, n)

    def _canon(t: pa.Table, n=n) -> pa.Table:
        v = t.column("doc_id").to_numpy()
        cands = [(v * _KNUTH + j) % n for j in range(1, _OUTDEG + 1)]
        cands += _block_peers(v, n)
        a_all, b_all = [], []
        for d in cands:
            m = (d != v) & (d < n)
            a_all.append(np.minimum(v[m], d[m]))
            b_all.append(np.maximum(v[m], d[m]))
        return pa.table(
            {
                "a": pa.array(np.concatenate(a_all), pa.int64()),
                "b": pa.array(np.concatenate(b_all), pa.int64()),
            }
        )

    edges = (
        ds0.map_batches(_canon, batch_format="pyarrow")
        .groupby(["a", "b"])
        .aggregate(Count(alias_name="_c"))
        .select_columns(["a", "b"])
        .materialize()
    )

    for _ in range(_TRUSS_ROUNDS):
        live = edges.to_pandas()  # bounded: <= 3n canonical edges
        packed = np.sort(
            live["a"].to_numpy(np.int64) * (np.int64(1) << 32)
            + live["b"].to_numpy(np.int64)
        )
        packed_ref = ray.put(packed)

        def _support(t: pa.Table, n=n, kinv=kinv,
                     packed_ref=packed_ref) -> pa.Table:
            packed = ray.get(packed_ref)

            def _is_live(x: np.ndarray, y: np.ndarray) -> np.ndarray:
                key = (
                    np.minimum(x, y) * (np.int64(1) << 32)
                    + np.maximum(x, y)
                )
                i = np.searchsorted(packed, key)
                i = np.clip(i, 0, len(packed) - 1)
                return packed[i] == key

            a = t.column("a").to_numpy()
            b = t.column("b").to_numpy()
            # candidate common neighbours: full arithmetic hood of a
            # (out + in slots) plus a's block peers
            cands = [(a * _KNUTH + j) % n for j in range(1, _OUTDEG + 1)]
            cands += [((a - j) * kinv) % n for j in range(1, _OUTDEG + 1)]
            cands += _block_peers(a, n)
            # tile (not repeat): cc concatenates slot-by-slot, so the
            # edge index pattern is [0..m-1, 0..m-1, ...]
            idx = np.tile(np.arange(len(a)), len(cands))
            cc = np.concatenate(cands)
            aa = np.concatenate([a] * len(cands))
            bb = np.concatenate([b] * len(cands))
            ok = (cc != aa) & (cc != bb) & (cc < n)
            # dedupe (edge, candidate) pairs — a node can appear in
            # several arithmetic slots
            pk = idx * (np.int64(1) << 40) + cc
            _, first = np.unique(pk, return_index=True)
            keep = np.zeros(len(pk), dtype=bool)
            keep[first] = True
            ok &= keep
            ok &= _is_live(aa, cc) & _is_live(bb, cc)
            sup = np.bincount(idx[ok], minlength=len(a)).astype(np.int64)
            m = sup >= _TRUSS_SUP
            return pa.table(
                {
                    "a": pa.array(a[m], pa.int64()),
                    "b": pa.array(b[m], pa.int64()),
                }
            )

        edges = edges.map_batches(
            _support, batch_format="pyarrow"
        ).materialize()

    return edges.map_batches(
        lambda t: t.rename_columns(["node_a", "node_b"]),
        batch_format="pyarrow",
    )


def _sql_truss() -> str:
    ctes = [
        f"blk AS (SELECT x.doc_id AS src, y.doc_id AS dst"
        f" FROM nodes x JOIN nodes y"
        f" ON x.doc_id // {_TRUSS_BLK} = y.doc_id // {_TRUSS_BLK}"
        f" AND x.doc_id < y.doc_id)",
        "e1 AS (SELECT least(src, dst) AS a, greatest(src, dst) AS b"
        " FROM (SELECT src, dst FROM base WHERE src <> dst"
        " UNION ALL SELECT src, dst FROM blk) GROUP BY 1, 2)",
    ]
    prev = "e1"
    for r in range(1, _TRUSS_ROUNDS + 1):
        ctes.append(
            f"tr{r} AS (SELECT x.a AS u, x.b AS v, y.b AS w"
            f" FROM {prev} x JOIN {prev} y ON y.a = x.a AND y.b > x.b"
            f" JOIN {prev} z ON z.a = x.b AND z.b = y.b)"
        )
        ctes.append(
            f"sup{r} AS (SELECT a, b, cast(count(*) AS BIGINT) AS s FROM ("
            f"SELECT u AS a, v AS b FROM tr{r}"
            f" UNION ALL SELECT u, w FROM tr{r}"
            f" UNION ALL SELECT v, w FROM tr{r}) GROUP BY a, b)"
        )
        nxt = f"e{r + 1}"
        ctes.append(
            f"{nxt} AS (SELECT e.a, e.b FROM {prev} e"
            f" JOIN sup{r} s ON s.a = e.a AND s.b = e.b"
            f" WHERE s.s >= {_TRUSS_SUP})"
        )
        prev = nxt
    return (
        _edges_cte()
        + ", "
        + ",\n".join(ctes)
        + f"\nSELECT a AS node_a, b AS node_b FROM {prev}"
    )




# ------------------------------------- composite: seed selection

_SEEDSEL_K = 20


def q_seed_select(sf_dir: str):
    """Composite curation pipeline — diversity-constrained seed
    selection: rank pages by seed-proximity authority
    (``ppr_seeded``), admit only members of the independent set
    (``mis_luby``: no two selected pages may cite each other —
    the diversity constraint), take the top-20 by (ppr desc,
    doc_id).  The driver verifies the CHAIN end-to-end, not just
    each stage (the ``training_prep`` precedent).

    Shape: the MIS member set is bounded (a maximal independent set
    of a degree-<=6 graph is large, but ids-only) and broadcasts via
    ``ray.put``; the PPR table streams through one filter + a
    distributed sort-limit."""
    import ray as _ray

    from .paths import q_ppr_seeded

    mis = q_mis_luby(sf_dir).to_pandas()
    mis_ref = _ray.put(np.sort(mis["node"].to_numpy(np.int64)))

    ppr = q_ppr_seeded(sf_dir)

    def _member(t: pa.Table) -> pa.Table:
        m = _ray.get(mis_ref)
        keep = np.isin(t.column("doc_id").to_numpy(), m)
        return t.filter(pa.array(keep))

    return (
        ppr.map_batches(_member, batch_format="pyarrow")
        .sort(["ppr_e12", "doc_id"], descending=[True, False])
        .limit(_SEEDSEL_K)
    )


def _sql_seed_select() -> str:
    from .paths import _sql_ppr

    return f"""
SELECT p.doc_id, p.ppr_e12
FROM ({_sql_ppr()}) p
JOIN (SELECT node FROM ({_sql_mis()})) m ON m.node = p.doc_id
ORDER BY p.ppr_e12 DESC, p.doc_id
LIMIT {_SEEDSEL_K}
"""


QUERIES = {
    "mis_luby": q_mis_luby,
    "greedy_matching": q_greedy_matching,
    "hyperball_reach": q_hyperball_reach,
    "k_truss": q_k_truss,
    "seed_select": q_seed_select,
}

ORACLE_SQL = {
    "mis_luby": _sql_mis(),
    "greedy_matching": _sql_matching(),
    "hyperball_reach": _sql_hyperball(),
    "k_truss": _sql_truss(),
}


def dynamic_oracle_sql(sf_dir: str) -> dict[str, str]:
    """seed_select's twin embeds paths._sql_ppr — resolved lazily by
    registry.oracle_sql rather than at module import."""
    return {"seed_select": _sql_seed_select()}
