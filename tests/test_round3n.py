"""Continuation-#15b/#16 contracts: the hashing-trick feature sketch
is row-local and matches an interpreted per-token twin; the DTW
frontier recursion equals the full-matrix DP; the GSP greedy witness
equals brute-force subsequence existence; the e6 Cramer read-out
matches Fraction rounding."""

import hashlib
import itertools
import random
from fractions import Fraction

import numpy as np
import pandas as pd
import pyarrow as pa


def _twin_row(text: str, B: int):
    """Interpreted hashing-trick read-out: one dict per document."""
    v = [0] * B
    for t in (text or "").lower().split():
        h = int.from_bytes(hashlib.md5(t.encode()).digest()[8:], "little")
        b = h % B
        s = 1 if ((h >> 8) & 1) == 0 else -1
        v[b] += s
    return {
        "nnz": sum(1 for x in v if x != 0),
        "l1": sum(abs(x) for x in v),
        "l2sq": sum(x * x for x in v),
        "sketch_dot": sum(x * (i + 1) for i, x in enumerate(v)),
    }


TEXTS = [
    "the quick brown fox jumps over the lazy dog",
    "alpha beta alpha beta alpha GAMMA gamma",
    "",
    "   ",
    "one",
    "repeat repeat repeat repeat",
    "Mixed CASE Tokens mixed case tokens",
    None,
]


def _table(texts, start=0):
    return pa.table(
        {
            "doc_id": pa.array(
                list(range(start, start + len(texts))), pa.int64()
            ),
            "text": pa.array(texts, pa.string()),
        }
    )


def test_fh_batch_matches_interpreted_twin():
    from weakscraper_ray.pipelines.features import _FH_B, _fh_batch

    out = _fh_batch(_table(TEXTS)).to_pydict()
    got = {
        out["doc_id"][i]: {
            k: out[k][i] for k in ("nnz", "l1", "l2sq", "sketch_dot")
        }
        for i in range(len(out["doc_id"]))
    }
    for i, txt in enumerate(TEXTS):
        want = _twin_row(txt, _FH_B)
        if want["nnz"] == 0:
            # all-whitespace / empty / NULL docs emit no row (the SQL
            # twin's WHERE t <> '' drops them too)
            assert i not in got
        else:
            assert got[i] == want, (i, txt)


def test_fh_batch_is_row_local_under_splits():
    """concat(_fh_batch(part) for parts) == _fh_batch(whole) — the
    map-only / zero-exchange claim in the module docstring."""
    from weakscraper_ray.pipelines.features import _fh_batch

    whole = _fh_batch(_table(TEXTS)).sort_by("doc_id").to_pydict()
    parts = pa.concat_tables(
        [
            _fh_batch(_table(TEXTS[:3], start=0)),
            _fh_batch(_table(TEXTS[3:6], start=3)),
            _fh_batch(_table(TEXTS[6:], start=6)),
        ]
    ).sort_by("doc_id").to_pydict()
    assert whole == parts


def test_dtw_frontier_equals_full_matrix():
    from weakscraper_ray.pipelines.patterns import _dtw_exact

    rng = random.Random(7)
    for trial in range(10):
        n = rng.randint(1, 12)
        a = np.array([rng.randint(0, 20) for _ in range(n)], np.int64)
        b = np.array([rng.randint(0, 20) for _ in range(n)], np.int64)
        INF = 1 << 60
        dp = [[INF] * (n + 1) for _ in range(n + 1)]
        dp[0][0] = 0
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                dp[i][j] = abs(int(a[i - 1]) - int(b[j - 1])) + min(
                    dp[i - 1][j], dp[i][j - 1], dp[i - 1][j - 1]
                )
        assert _dtw_exact(a, b) == dp[n][n], (trial, a, b)


def test_ols_e6_matches_fraction_rounding():
    from weakscraper_ray.pipelines.patterns import _ols_e6

    rng = random.Random(11)
    for _ in range(200):
        p = rng.randint(-10**12, 10**12)
        d = rng.randint(1, 10**9)
        x = Fraction(10**6 * p, d)
        # half-away-from-zero on the exact rational
        want = int(x + Fraction(1, 2)) if x >= 0 else -int(-x + Fraction(1, 2))
        assert _ols_e6(p, d) == want, (p, d)
    # exact .5 ties round AWAY on both signs
    assert _ols_e6(3, 2_000_000) == 2  # 3/2 -> 2
    assert _ols_e6(-3, 2_000_000) == -2


def _brute_triples(journeys):
    """support of every ordered type triple by brute-force subsequence
    existence (itertools over all position triples)."""
    sup = {}
    for seq in journeys.values():
        seen = set()
        for i, j, k in itertools.combinations(range(len(seq)), 3):
            seen.add((seq[i], seq[j], seq[k]))
        for t in seen:
            sup[t] = sup.get(t, 0) + 1
    return sup


def test_triples_shard_equals_bruteforce():
    from weakscraper_ray.pipelines.patterns import _triples_shard

    rng = random.Random(23)
    types = ["a", "b", "c", "d"]
    for trial in range(6):
        journeys = {
            u: [rng.choice(types) for _ in range(rng.randint(0, 14))]
            for u in range(1, 20)
        }
        journeys = {u: s for u, s in journeys.items() if s}
        rows = []
        eid = 0
        for u, seq in journeys.items():
            for p, t in enumerate(seq):
                rows.append((u, eid, t, p * 1000))
                eid += 1
        rng.shuffle(rows)  # shard input arrives unordered
        g = pd.DataFrame(
            rows, columns=["user_id", "event_id", "event_type", "us"]
        )
        out = _triples_shard(g)
        got = {
            (r.t1, r.t2, r.t3): r.n for r in out.itertuples(index=False)
        }
        assert got == _brute_triples(journeys), trial


def test_jenks_dp_equals_bruteforce_enumeration():
    from weakscraper_ray.pipelines.patterns import _jenks_cost, _jenks_dp

    rng = random.Random(31)
    for trial in range(8):
        n = rng.randint(4, 11)
        k = rng.randint(2, min(4, n))
        x = np.array([rng.randint(0, 50) for _ in range(n)], np.int64)
        P1 = np.zeros(n + 1, np.int64)
        P2 = np.zeros(n + 1, np.int64)
        P1[1:] = np.cumsum(x)
        P2[1:] = np.cumsum(x * x)
        best = None
        # enumerate every way to place k-1 breaks
        for breaks in itertools.combinations(range(1, n), k - 1):
            bounds = [0, *breaks, n]
            tot = sum(
                _jenks_cost(P1, P2, bounds[s], bounds[s + 1])
                for s in range(k)
            )
            best = tot if best is None else min(best, tot)
        assert _jenks_dp(x, k) == best, (trial, x.tolist(), k)


def test_modularity_identities_on_karate_style_graph():
    """Drive q_modularity_score's arithmetic on a handcrafted graph
    via its published identity: sum_c d_c = 2m, and a perfectly
    separable 2-community graph scores the known Q = 1/2 - 1/4 ...
    computed here independently from first principles."""
    # two triangles, no cross edges: communities = the triangles
    edges = [(0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)]
    comm = {0: 0, 1: 0, 2: 0, 3: 1, 4: 1, 5: 1}
    m = len(edges)
    ec = {0: 0, 1: 0}
    dc = {0: 0, 1: 0}
    for u, v in edges:
        if comm[u] == comm[v]:
            ec[comm[u]] += 1
        dc[comm[u]] += 1
        dc[comm[v]] += 1
    assert sum(dc.values()) == 2 * m
    q_num = sum(4 * m * ec[c] - dc[c] ** 2 for c in (0, 1))
    q_den = 4 * m * m
    # disconnected equal halves: Q = 1 - 2*(1/2)^2 = 1/2 exactly
    assert q_num * 2 == q_den


def test_lexicon_phrases_are_border_free():
    """the AC==replace-trick equivalence requires border-free phrases
    (no proper prefix equals a suffix → occurrences cannot overlap)."""
    from weakscraper_ray.pipelines.patterns import _LEXICON

    for p in _LEXICON:
        for k in range(1, len(p)):
            assert p[:k] != p[-k:], (p, k)


def test_ac_scanner_counts_equal_naive_scan():
    from weakscraper_ray.pipelines.patterns import (
        _LEXICON,
        _LexiconScanner,
    )

    rng = random.Random(41)
    words = ["scan", "fast", "hash", "join", "table", "sort", "key",
             "group", "x", "scans", "stable"]
    texts = [
        " ".join(rng.choice(words) for _ in range(rng.randint(0, 40)))
        for _ in range(60)
    ] + ["", None, "fast scan fast scan scan", "hash join table group"]
    t = pa.table(
        {
            "doc_id": pa.array(list(range(len(texts))), pa.int64()),
            "text": pa.array(texts, pa.string()),
        }
    )
    out = _LexiconScanner()(t)
    got = {
        (d, p): n
        for d, p, n in zip(
            out.column("doc_id").to_pylist(),
            out.column("phrase").to_pylist(),
            out.column("n").to_pylist(),
        )
    }
    want = {}
    for i, txt in enumerate(texts):
        txt = txt or ""
        for p in _LEXICON:
            # border-free ⇒ all occurrences are non-overlapping ⇒
            # count every start position (the AC semantics)
            n = sum(
                1 for s in range(len(txt)) if txt.startswith(p, s)
            )
            if n:
                want[(i, p)] = n
    assert got == want


def test_sb_clip_equals_bruteforce_leave_one_out():
    from weakscraper_ray.pipelines.patterns import _sb_clip

    rng = random.Random(53)
    for trial in range(8):
        rows = []
        for d in range(8):
            for g in range(6):
                c = rng.randint(0, 4)
                if c:
                    rows.append((d, f"g{g}", c))
        if not rows:
            continue
        df = pd.DataFrame(rows, columns=["doc_id", "gram", "cnt"])
        out = _sb_clip(df).set_index("doc_id")
        # brute force: clip(doc, gram) = max count among OTHER docs
        by_gram = {}
        for d, g, c in rows:
            by_gram.setdefault(g, {})[d] = c
        want_hit = {}
        want_tot = {}
        for d, g, c in rows:
            others = [v for dd, v in by_gram[g].items() if dd != d]
            clip = max(others) if others else 0
            want_hit[d] = want_hit.get(d, 0) + min(c, clip)
            want_tot[d] = want_tot.get(d, 0) + c
        for d in want_tot:
            assert out.loc[d, "hit"] == want_hit[d], (trial, d)
            assert out.loc[d, "tot"] == want_tot[d], (trial, d)


def test_tau_census_equals_bruteforce_pairs():
    from weakscraper_ray.pipelines.patterns import _tau_from_census

    rng = random.Random(61)
    for trial in range(6):
        xs = [rng.randint(0, 4) for _ in range(40)]
        ys = [rng.randint(0, 3) for _ in range(40)]
        cells = {}
        for x, y in zip(xs, ys):
            cells[(x, y)] = cells.get((x, y), 0) + 1
        C, D, n0, n1t, n2t = _tau_from_census(cells)
        bc = bd = bn1 = bn2 = 0
        n = len(xs)
        for i in range(n):
            for j in range(i + 1, n):
                dx = xs[i] - xs[j]
                dy = ys[i] - ys[j]
                if dx == 0:
                    bn1 += 1
                if dy == 0:
                    bn2 += 1
                if dx * dy > 0:
                    bc += 1
                elif dx * dy < 0:
                    bd += 1
        assert (C, D, n0, n1t, n2t) == (
            bc, bd, n * (n - 1) // 2, bn1, bn2
        ), trial
