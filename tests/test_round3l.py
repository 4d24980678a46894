"""Continuation-#13 helper contracts: HLL rho ranks, Bloom no-false-
negatives, FastSS candidate completeness + exact verify, Gini-stump
rational argmax vs brute force, interval-overlap sweep identity,
Morton interleave round-trip.  (The 15 new queries themselves are
driver-verified by the test_relational.py harness.)"""

import hashlib
import itertools
import random

import numpy as np
import pytest

from weakscraper_ray.pipelines.membership import (
    _HLL_R,
    _bloom_positions,
    _hll_rho,
    _md5_u64,
    _BLOOM_BITS,
)
from weakscraper_ray.pipelines.mlprep import _edit1, _names_from_ids
from weakscraper_ray.pipelines.ranges import _morton_np, _Z_BITS


def test_no_query_name_collisions_across_modules():
    """``registry.queries()`` merges the families with ``dict.update``,
    so a duplicate name would silently SHADOW an earlier family's
    operator (bit continuation #13: stratified_sample/ntile_assign).
    Assert global uniqueness so the next collision fails loudly."""
    from weakscraper_ray.pipelines import registry

    seen: dict[str, str] = {}
    for fam in registry.FAMILIES:
        for k in fam.QUERIES:
            assert k not in seen, (
                f"query '{k}' defined in both {seen[k]} and {fam.__name__}"
            )
            seen[k] = fam.__name__
    assert set(seen) == set(registry.queries())


def test_paths_constants_match_graph():
    """paths.py duplicates graph.py's derived-graph literals (to stay
    import-cycle-free on workers); they must never drift."""
    from weakscraper_ray.pipelines import graph as G
    from weakscraper_ray.pipelines import paths as P

    assert P._KNUTH == G._PR_KNUTH
    assert P._OUTDEG == G._PR_OUTDEG
    assert P._MASS == G._PR_MASS
    assert (P._DAMP_NUM, P._DAMP_DEN) == (G._PR_DAMP_NUM, G._PR_DAMP_DEN)
    src = np.arange(17, dtype=np.int64)
    for a, b in zip(P._dsts(src, 601), G._derived_dsts(src, 601)):
        assert (a == b).all()


def test_md5_u64_known_value():
    # must equal DuckDB md5_number_lower (probed live in round 2)
    assert _md5_u64("12345") == int.from_bytes(
        hashlib.md5(b"12345").digest()[8:], "little"
    )


def test_hll_rho_matches_bit_length():
    rng = random.Random(7)
    vals = [0, 1, (1 << _HLL_R) - 1] + [
        rng.randrange(1 << _HLL_R) for _ in range(500)
    ]
    rest = np.array(vals, dtype=np.uint64)
    rho = _hll_rho(rest)
    for v, r in zip(vals, rho):
        expect = (_HLL_R + 1) if v == 0 else _HLL_R - v.bit_length() + 1
        assert r == expect


def test_bloom_no_false_negatives():
    keys = np.arange(0, 5000, 7, dtype=np.int64)
    bits = np.zeros(_BLOOM_BITS, dtype=bool)
    for pos in _bloom_positions(keys):
        bits[pos] = True
    ok = np.ones(len(keys), dtype=bool)
    for pos in _bloom_positions(keys):
        ok &= bits[pos]
    assert ok.all()  # every inserted key must probe positive


def _lev(a: str, b: str) -> int:
    dp = list(range(len(b) + 1))
    for i, ca in enumerate(a, 1):
        prev, dp[0] = dp[0], i
        for j, cb in enumerate(b, 1):
            prev, dp[j] = dp[j], min(
                dp[j] + 1, dp[j - 1] + 1, prev + (ca != cb)
            )
    return dp[len(b)]


def test_edit1_matches_dp():
    rng = random.Random(3)
    alpha = "abcde"
    for _ in range(400):
        a = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 7)))
        b = "".join(rng.choice(alpha) for _ in range(rng.randint(1, 7)))
        assert _edit1(a, b) == (_lev(a, b) == 1), (a, b)


def test_fastss_candidates_complete():
    """any pair at distance exactly 1 must share a deletion key."""

    def keys(s):
        return {s} | {s[:i] + s[i + 1 :] for i in range(len(s))}

    rng = random.Random(11)
    alpha = "abc"
    pool = [
        "".join(rng.choice(alpha) for _ in range(rng.randint(2, 6)))
        for _ in range(200)
    ]
    for a, b in itertools.combinations(set(pool), 2):
        if _lev(a, b) == 1:
            assert keys(a) & keys(b), (a, b)


def test_names_from_ids_deterministic_and_truncated():
    ids = np.arange(1000, dtype=np.int64)
    n1 = _names_from_ids(ids)
    n2 = _names_from_ids(ids)
    assert list(n1) == list(n2)
    lens = {len(s) for s in n1}
    assert lens == {5, 6}  # truncation rule actually fires
    assert all(set(s) <= set("abcde") for s in n1)


def test_gini_stump_rational_argmax_vs_bruteforce():
    """the cross-multiplied argmax must equal direct weighted-Gini
    minimization computed with exact Fractions."""
    from fractions import Fraction

    rng = random.Random(5)
    for _ in range(30):
        bins = 16
        pos = [rng.randint(0, 20) for _ in range(bins)]
        neg = [rng.randint(0, 20) for _ in range(bins)]
        tp, tn = sum(pos), sum(neg)
        if tp + tn == 0:
            continue
        best = None  # engine rule: max num/den, tie -> min k
        for k in range(1, bins):
            pl, ngl = sum(pos[:k]), sum(neg[:k])
            nl = pl + ngl
            pr_, ngr = tp - pl, tn - ngl
            nr = pr_ + ngr
            if nl == 0 or nr == 0:
                continue
            num = (pl * pl + ngl * ngl) * nr + (pr_ * pr_ + ngr * ngr) * nl
            den = nl * nr
            if best is None or num * best[1] > best[0] * den:
                best = (num, den, k)
        if best is None:
            continue
        # brute force: minimize weighted Gini with Fractions
        def wgini(k):
            pl, ngl = sum(pos[:k]), sum(neg[:k])
            nl = pl + ngl
            pr_, ngr = tp - pl, tn - ngl
            nr = pr_ + ngr
            gl = 1 - Fraction(pl * pl + ngl * ngl, nl * nl)
            gr = 1 - Fraction(pr_ * pr_ + ngr * ngr, nr * nr)
            return Fraction(nl, nl + nr) * gl + Fraction(nr, nl + nr) * gr

        cands = [
            k
            for k in range(1, bins)
            if sum(pos[:k]) + sum(neg[:k]) > 0
            and (tp - sum(pos[:k])) + (tn - sum(neg[:k])) > 0
        ]
        want = min(cands, key=lambda k: (wgini(k), k))
        assert best[2] == want


def test_interval_overlap_identity_vs_quadratic():
    rng = random.Random(9)
    dur = 50
    starts = sorted(rng.randint(0, 1000) for _ in range(200))
    s = np.array(starts, dtype=np.int64)
    cnt_leq = np.searchsorted(s, s - dur, side="right")
    fast = int((np.arange(len(s)) - cnt_leq).sum())
    slow = sum(
        1
        for i in range(len(s))
        for j in range(i + 1, len(s))
        if s[i] + dur > s[j]
    )
    assert fast == slow


def test_mis_is_independent_and_matching_is_disjoint():
    """algorithm-level invariants, checked on the SQL mirror (the
    engine equals the mirror via the driver-mimic harness): no two
    MIS nodes are adjacent; no node has two match partners."""
    import duckdb

    from weakscraper_ray.pipelines.rounds import ORACLE_SQL

    con = duckdb.connect()
    con.execute(
        "CREATE VIEW documents AS SELECT * FROM "
        "read_parquet('/root/testdata/sf0.001/documents.parquet')"
    )
    con.execute(f"CREATE TABLE mis AS {ORACLE_SQL['mis_luby']}")
    (viol,) = con.execute(
        """
        WITH p AS (SELECT cast(count(*) AS BIGINT) AS n FROM documents),
        e AS (SELECT d.doc_id AS src,
                     (d.doc_id * 2654435761 + j.j) % p.n AS dst
              FROM documents d, p, range(1, 4) j(j))
        SELECT count(*) FROM e
        JOIN mis a ON a.node = e.src JOIN mis b ON b.node = e.dst
        WHERE e.src <> e.dst  -- the UNION across rounds is independent
        """
    ).fetchone()
    assert viol == 0
    con.execute(f"CREATE TABLE m AS {ORACLE_SQL['greedy_matching']}")
    (dup,) = con.execute(
        """
        SELECT count(*) FROM (
          SELECT node FROM (SELECT node_a AS node FROM m
                            UNION ALL SELECT node_b FROM m)
          GROUP BY node HAVING count(*) > 1)
        """
    ).fetchone()
    assert dup == 0
    (n_mis,) = con.execute("SELECT count(*) FROM mis").fetchone()
    (n_m,) = con.execute("SELECT count(*) FROM m").fetchone()
    assert n_mis > 0 and n_m > 0


def test_morton_round_trip():
    rng = random.Random(2)
    x = np.array([rng.randrange(1 << _Z_BITS) for _ in range(300)],
                 dtype=np.int64)
    y = np.array([rng.randrange(1 << _Z_BITS) for _ in range(300)],
                 dtype=np.int64)
    z = _morton_np(x, y)
    # de-interleave and compare
    xr = np.zeros(len(z), dtype=np.int64)
    yr = np.zeros(len(z), dtype=np.int64)
    for i in range(_Z_BITS):
        xr |= ((z >> (2 * i)) & 1) << i
        yr |= ((z >> (2 * i + 1)) & 1) << i
    assert (xr == x).all() and (yr == y).all()
    # distinct points -> distinct codes
    assert len(np.unique(z)) == len(np.unique(x * (1 << _Z_BITS) + y))
