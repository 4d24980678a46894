"""Round-3 additions: pairs→clusters dedup, embedding stage,
sample_events determinism, LSH shuffle slimming."""

import numpy as np
import pyarrow as pa
import pytest


# ------------------------------------------------- pairs -> clusters

def _labels_via_ray(pairs, ray_session, driver_max_edges=0):
    """driver_max_edges=0 forces the DISTRIBUTED hash-to-min path (the
    default driver union-find path is the union_find_labels twin
    itself, so testing it against itself would be vacuous)."""
    import ray.data

    from weakscraper_ray.functions.dedup import cluster_pairs

    t = pa.table(
        {
            "doc_a": pa.array([a for a, _ in pairs], pa.int64()),
            "doc_b": pa.array([b for _, b in pairs], pa.int64()),
        }
    )
    out = cluster_pairs(
        ray.data.from_arrow(t), driver_max_edges=driver_max_edges
    ).to_pandas()
    assert set(out.columns) == {"doc_id", "cluster_id", "is_keeper"}
    return {
        int(r.doc_id): (int(r.cluster_id), int(r.is_keeper))
        for r in out.itertuples()
    }


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 2)],
        [(1, 2), (2, 3), (3, 4)],                      # chain
        [(5, 6), (5, 7), (5, 8)],                      # star
        [(1, 2), (3, 4), (10, 11), (2, 1)],            # two comps + dup pair
        [(i, i + 1) for i in range(30)],               # long path: >1 round
        [(100, 3), (50, 3), (2, 100)],                 # min arrives transitively
    ],
)
def test_cluster_pairs_matches_union_find(pairs, ray_session):
    from weakscraper_ray.functions.dedup import union_find_labels

    want = union_find_labels(pairs)
    for dme in (0, 10**9):  # distributed path AND driver fast path
        got = _labels_via_ray(pairs, ray_session, driver_max_edges=dme)
        assert set(got) == set(want)
        for node, label in want.items():
            assert got[node] == (label, int(node == label)), (dme, node)


# ------------------------------------------------------ HLL sketch

def test_approx_distinct_within_error(ray_session):
    """HLL estimate must land within 5% of the exact distinct count
    (4096 registers → ~1.6% standard error; 5% ≈ 3σ) and be
    deterministic run to run."""
    import duckdb

    from weakscraper_ray.pipelines import relational as R

    sf = "/root/testdata/sf0.01"
    t1 = R.QUERIES["approx_distinct_users"](sf)
    t2 = R.QUERIES["approx_distinct_users"](sf)
    est = t1.column("approx_distinct_users")[0].as_py()
    assert est == t2.column("approx_distinct_users")[0].as_py()
    exact = duckdb.connect().execute(
        f"SELECT count(DISTINCT user_id) FROM read_parquet('{sf}/events.parquet')"
    ).fetchone()[0]
    assert abs(est - exact) / exact < 0.05, (est, exact)


def test_hll_merge_equals_single_pass():
    """Merging per-batch registers must equal one-shot registers over
    the concatenated input (associativity of elementwise max)."""
    import pyarrow as pa

    from weakscraper_ray.functions.sketch import (
        hll_estimate, hll_merge, hll_partial,
    )

    ids = [f"user-{i % 700}" for i in range(5000)]
    whole = hll_partial(pa.table({"u": ids}), "u")
    parts = [
        hll_partial(pa.table({"u": ids[i : i + 1000]}), "u")
        for i in range(0, 5000, 1000)
    ]
    merged = hll_merge(
        [np.asarray(p.column("regs")[0].as_py(), dtype=np.uint8) for p in parts]
    )
    one = np.asarray(whole.column("regs")[0].as_py(), dtype=np.uint8)
    assert (merged == one).all()
    assert abs(hll_estimate(one) - 700) / 700 < 0.05


# ------------------------------------------------- rounding contract

def test_half_away_rounding_matches_duckdb():
    """The ADVICE r2 theme, pinned: every scaled-int rounding helper
    must agree with DuckDB round() on EXACT .5 ties (half away from
    zero), where pc.round/np.round/pandas default to half-to-even."""
    import duckdb
    import pyarrow as pa

    from weakscraper_ray.functions.similarity import round_e4_away
    from weakscraper_ray.pipelines.relational import _i64_away, _i64_away_np

    vals = [0.005, 0.015, 0.025, -0.005, -0.015, 143026.585,
            1.0, 0.0, -2.345, 7.125, -7.125, 0.004999, 2.675]
    con = duckdb.connect()
    want = [
        int(con.execute(f"SELECT cast(round({v!r} * 100, 0) AS BIGINT)").fetchone()[0])
        for v in vals
    ]
    got_pc = _i64_away(pa.array(vals, pa.float64())).to_pylist()
    got_np = _i64_away_np(np.array(vals)).tolist()
    assert got_pc == want
    assert got_np == want

    want_e4 = [
        int(con.execute(f"SELECT cast(round({v!r} * 10000, 0) AS BIGINT)").fetchone()[0])
        for v in vals
    ]
    got_e4 = round_e4_away(np.array(vals)).astype("int64").tolist()
    assert got_e4 == want_e4


# -------------------------------------------------------- CLI smoke

def test_cli_extract_smoke(tmp_path):
    """End-to-end CLI drive in a fresh process: extract a tiny
    transcripts table to a checkpointed sink, then resume (second run
    must recompute nothing and report the same roll-up)."""
    import json
    import subprocess
    import sys

    from weakscraper_ray.transcripts import ensure_generated

    src = ensure_generated("tiny")
    out = tmp_path / "out"
    cmd = [
        sys.executable, "-m", "weakscraper_ray", "extract",
        "--input", src, "--out", str(out),
        "--num-cpus", "4", "--shards", "4",
    ]
    r1 = subprocess.run(
        cmd, capture_output=True, text=True, cwd="/root/repo", timeout=300
    )
    assert r1.returncode == 0, r1.stderr[-2000:]
    roll1 = json.loads(r1.stdout.strip().splitlines()[-1])
    assert roll1["partitions"] == 4 and roll1["rows"] > 0

    r2 = subprocess.run(
        cmd, capture_output=True, text=True, cwd="/root/repo", timeout=300
    )
    assert r2.returncode == 0, r2.stderr[-2000:]
    roll2 = json.loads(r2.stdout.strip().splitlines()[-1])
    assert roll2 == roll1  # resume: same manifests, nothing rewritten


def test_cli_query_list(tmp_path):
    import subprocess
    import sys

    r = subprocess.run(
        [sys.executable, "-m", "weakscraper_ray", "query"],
        capture_output=True, text=True, cwd="/root/repo", timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    lines = r.stdout.strip().splitlines()
    assert any(l.startswith("dedup_clusters") and "oracle" in l for l in lines)
    assert any(l.startswith("knn_lsh") and "rows-only" in l for l in lines)


# ----------------------------------------------- sample_events invariants

def test_sample_events_deterministic_and_sized(ray_session):
    """The one rows-only query with no oracle (seeded random_sample):
    pin it down with invariants — identical row set across two runs of
    the same seed, sample fraction within binomial tolerance, and rows
    drawn verbatim from the input (VERDICT r2 #6)."""
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines import relational as R

    sf = "/root/testdata/sf0.01"
    a = R.QUERIES["sample_events"](sf).to_pandas()
    b = R.QUERIES["sample_events"](sf).to_pandas()
    key = lambda df: sorted(df["event_id"].astype(int).tolist())
    assert key(a) == key(b), "seeded sample must be run-to-run identical"

    n_total = pq.read_metadata(f"{sf}/events.parquet").num_rows
    frac = len(a) / n_total
    # 0.1 ± 5 sigma of Binomial(n, 0.1)
    sigma = (0.1 * 0.9 / n_total) ** 0.5
    assert abs(frac - 0.1) < 5 * sigma, frac

    allowed = set(
        pq.read_table(f"{sf}/events.parquet", columns=["event_id"])
        .column("event_id").to_pylist()
    )
    assert set(a["event_id"].astype(int)) <= allowed


# ------------------------------------- minhash shuffle-verify fallback

def test_dedup_minhash_shuffle_fallback_equivalent(ray_session):
    """Forcing the candidate count over the broadcast threshold must
    route through the fully-distributed shuffle verify and produce the
    IDENTICAL pair set (VERDICT r2 #4: no unconditional driver
    materialization)."""
    from weakscraper_ray.pipelines import relational as R

    sf = "/root/testdata/sf0.01"
    default = R.q_dedup_minhash(sf).to_pandas()
    forced = R.q_dedup_minhash(sf, broadcast_max_pairs=0).to_pandas()
    key = lambda df: sorted(map(tuple, df[["doc_a", "doc_b"]].values.tolist()))
    assert key(default) == key(forced)
    assert len(default) > 0


# ------------------------------------------------- text -> embedding

def test_text_encoder_contract():
    """The stub-contract encoder must satisfy what any real encoder
    must: deterministic across instantiations, unit-norm float32
    fixed_size_list<dim> output keyed by vec_id."""
    from weakscraper_ray.functions.embed import TextEncoder

    batch = pa.table(
        {
            "doc_id": pa.array([3, 1, 7], pa.int64()),
            "text": ["alpha beta gamma", "alpha beta gamma", "totally different words"],
        }
    )
    out1 = TextEncoder(dim=64)(batch)
    out2 = TextEncoder(dim=64)(batch)  # fresh "model load" → same result
    assert out1.equals(out2)
    assert out1.column("vec_id").to_pylist() == [3, 1, 7]
    typ = out1.column("embedding").type
    assert pa.types.is_fixed_size_list(typ) and typ.list_size == 64
    assert typ.value_type == pa.float32()
    emb = np.asarray(out1.column("embedding").to_pylist(), dtype=np.float64)
    np.testing.assert_allclose(np.linalg.norm(emb, axis=1), 1.0, rtol=1e-5)
    # same text → same embedding; different text → different
    assert np.allclose(emb[0], emb[1])
    assert not np.allclose(emb[0], emb[2])


def test_fixed_list_to_numpy_layouts():
    from weakscraper_ray.functions.embed import fixed_list_to_numpy

    want = np.arange(12, dtype=np.float32).reshape(4, 3)
    fixed = pa.FixedSizeListArray.from_arrays(
        pa.array(want.reshape(-1), pa.float32()), 3
    )
    np.testing.assert_array_equal(fixed_list_to_numpy(fixed), want)
    # sliced view keeps the right window
    np.testing.assert_array_equal(fixed_list_to_numpy(fixed.slice(1, 2)), want[1:3])
    # uniform list<float> (the testdata layout)
    plain = pa.array([list(r) for r in want], pa.list_(pa.float32()))
    np.testing.assert_array_equal(fixed_list_to_numpy(plain), want)
    np.testing.assert_array_equal(fixed_list_to_numpy(plain.slice(2)), want[2:])
    chunked = pa.chunked_array([plain.slice(0, 2), plain.slice(2)])
    np.testing.assert_array_equal(fixed_list_to_numpy(chunked), want)
    got64 = fixed_list_to_numpy(plain, dtype=np.float64)
    assert got64.dtype == np.float64
    with pytest.raises(ValueError):
        fixed_list_to_numpy(pa.array([[1.0], [1.0, 2.0]], pa.list_(pa.float32())))


def test_cluster_pairs_random_graph(ray_session):
    """Stress the distributed components operator on a seeded random
    graph (many components, long chains, high-degree hubs) against the
    exact union-find twin."""
    import random

    from weakscraper_ray.functions.dedup import union_find_labels

    rng = random.Random(7)
    nodes = list(range(0, 4000, 3))
    pairs = [
        (rng.choice(nodes), rng.choice(nodes)) for _ in range(1500)
    ]
    pairs = [(a, b) for a, b in pairs if a != b]
    want = union_find_labels(pairs)
    got = _labels_via_ray(pairs, ray_session)
    assert set(got) == set(want)
    for node, label in want.items():
        assert got[node] == (label, int(node == label)), node


def test_union_find_labels_basic():
    from weakscraper_ray.functions.dedup import union_find_labels

    lab = union_find_labels([(4, 2), (2, 9), (7, 8)])
    assert lab == {4: 2, 2: 2, 9: 2, 7: 7, 8: 7}


# --------------------------------------- bloom / quantile histogram

def test_bloom_no_false_negatives_and_fp_bound():
    from weakscraper_ray.functions import sketch

    rng = np.random.RandomState(7)
    members = rng.choice(10_000_000, size=50_000, replace=False).astype(np.int64)
    bits = sketch.bloom_merge(
        [sketch.bloom_partial(members[:20_000]), sketch.bloom_partial(members[20_000:])]
    )
    # no false negatives, ever
    assert sketch.bloom_contains(bits, members).all()
    # FP rate within 3x the theoretical (1 - e^{-kn/m})^k bound
    non = np.setdiff1d(
        rng.choice(100_000_000, size=100_000, replace=False).astype(np.int64) + 10_000_000,
        members,
    )
    fp = sketch.bloom_contains(bits, non).mean()
    k, n, m = sketch.BLOOM_K, len(members), sketch.BLOOM_BITS
    bound = (1 - np.exp(-k * n / m)) ** k
    assert fp <= 3 * bound, (fp, bound)


def test_bloom_merge_equals_single_pass():
    from weakscraper_ray.functions import sketch

    keys = np.arange(1000, dtype=np.int64) * 7919
    whole = sketch.bloom_partial(keys)
    merged = sketch.bloom_merge(
        [sketch.bloom_partial(keys[i::4]) for i in range(4)]
    )
    assert np.array_equal(whole, merged)


def test_qh_quantile_error_bound_and_merge():
    from weakscraper_ray.functions import sketch

    rng = np.random.RandomState(3)
    vals = np.concatenate(
        [rng.lognormal(3.0, 1.5, 20_000), rng.uniform(0, 500, 10_000)]
    )
    whole = sketch.qh_partial(vals)
    merged = sketch.qh_merge([sketch.qh_partial(p) for p in np.array_split(vals, 7)])
    # merge associativity: bin counts identical however the data is split
    assert np.array_equal(whole, merged)
    v = np.sort(vals)
    for q in (0.1, 0.5, 0.9, 0.99):
        exact = v[max(0, int(np.ceil(q * len(v))) - 1)]
        approx = sketch.qh_quantile(whole, q)
        # upper bin edge: within one multiplicative bin width above exact
        assert exact <= approx <= exact * (1 + sketch.QH_REL_ERR) * (1 + 1e-12), (
            q, exact, approx,
        )


def test_approx_quantiles_query_matches_exact_within_bound(ray_session):
    import duckdb

    from weakscraper_ray.functions.sketch import QH_REL_ERR
    from weakscraper_ray.pipelines import analytics

    sf = "/root/testdata/sf0.01"
    df = analytics.QUERIES["approx_quantiles_value"](sf).to_pandas()
    exact = {
        r[0]: r[1:]
        for r in duckdb.connect().execute(
            "SELECT event_type, quantile_disc(value,0.5), quantile_disc(value,0.9),"
            " quantile_disc(value,0.99) FROM"
            f" read_parquet('{sf}/events.parquet') GROUP BY 1"
        ).fetchall()
    }
    assert len(df) == len(exact)
    for r in df.itertuples():
        e50, e90, e99 = exact[r.event_type]
        for got, want in ((r.p50_approx, e50), (r.p90_approx, e90), (r.p99_approx, e99)):
            assert want <= got <= want * (1 + QH_REL_ERR) * (1 + 1e-12)


def test_decontaminate_invariants(ray_session):
    """Decontamination: no benchmark doc appears in the output, every
    reported doc has >= 1 leaked n-gram, and the result is
    deterministic across runs (content-hash split, no RNG)."""
    from weakscraper_ray.functions.contamination import is_benchmark_doc
    from weakscraper_ray.pipelines.relational import QUERIES

    sf = "/root/testdata/sf0.01"
    a = QUERIES["decontaminate"](sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert len(a) > 0
    assert (a.n_overlap >= 1).all()
    assert not a.doc_id.map(is_benchmark_doc).any()
    b = QUERIES["decontaminate"](sf).to_pandas().sort_values("doc_id").reset_index(drop=True)
    assert a.equals(b)


def test_split_assign_partitions_corpus(ray_session):
    """The train/val/test split is a partition: split sizes sum to the
    corpus size and every split is non-empty at sf0.01."""
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.relational import QUERIES

    sf = "/root/testdata/sf0.01"
    df = QUERIES["split_assign"](sf).to_pandas()
    total = pq.read_metadata(f"{sf}/documents.parquet").num_rows
    assert sorted(df.split) == ["test", "train", "val"]
    assert df.n_docs.sum() == total
    assert (df.n_docs > 0).all()


def test_shuffle_train_permutation_and_determinism(ray_session):
    """Seeded global shuffle: output is an exact permutation of the
    input, deterministic for a fixed seed, and not the input order."""
    import pandas as pd

    from weakscraper_ray.pipelines.relational import QUERIES

    sf = "/root/testdata/sf0.01"
    a = QUERIES["shuffle_train"](sf).to_pandas()
    b = QUERIES["shuffle_train"](sf).to_pandas()
    src = pd.read_parquet(f"{sf}/documents.parquet",
                          columns=["doc_id", "lang", "source"])
    assert sorted(a.doc_id) == sorted(src.doc_id)
    assert a.equals(b)  # same seed -> same order
    assert not a.doc_id.reset_index(drop=True).equals(
        src.doc_id.reset_index(drop=True)
    )


def test_window_hopping_fanout_and_consistency(ray_session):
    """Hopping windows: total event count across windows is exactly
    size/hop x input events, and each tumbling hour's count equals the
    hopping window that starts on that hour boundary only when no
    events fall in the following 45 min — so instead assert the
    stronger global invariant plus per-window bounds."""
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.relational import QUERIES

    sf = "/root/testdata/sf0.01"
    df = QUERIES["window_hopping"](sf).to_pandas()
    n_src = pq.read_metadata(f"{sf}/events.parquet").num_rows
    assert df.n_events.sum() == 4 * n_src
    assert (df.n_events > 0).all()
    # window starts are 15-min aligned
    assert (df.window_start_min % 15 == 0).all()


def test_pii_scrub_removes_all_pattern_hits(ray_session):
    """After scrubbing, no digit runs or email-shaped substrings
    survive, every row's redaction count is consistent with the
    scrubbed text, and the synthetic props (integer JSON values)
    guarantee at least one redaction per row."""
    import re

    from weakscraper_ray.pipelines.curation import _PII_PAT, QUERIES

    df = QUERIES["pii_scrub"]("/root/testdata/sf0.01").to_pandas()
    assert (df.n_redactions >= 1).all()
    pat = re.compile(_PII_PAT)
    assert not df.props_scrubbed.str.contains(pat).any()
    # replacing each match with the marker: marker count == n_redactions
    assert (df.props_scrubbed.str.count("<PII>") == df.n_redactions).all()


def test_stratified_sample_exact_k_and_deterministic(ray_session):
    from weakscraper_ray.pipelines.curation import _STRAT_K, QUERIES

    sf = "/root/testdata/sf0.01"
    a = QUERIES["stratified_sample"](sf).to_pandas()
    b = QUERIES["stratified_sample"](sf).to_pandas()
    key = ["lang", "doc_id"]
    assert a.sort_values(key).reset_index(drop=True).equals(
        b.sort_values(key).reset_index(drop=True)
    )
    sizes = a.groupby("lang").size()
    assert (sizes == _STRAT_K).all()
    # sampled ids exist in the source per stratum
    import pyarrow.parquet as pq

    src = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "lang"]).to_pandas()
    merged = a.merge(src, on=["lang", "doc_id"], how="left", indicator=True)
    assert (merged._merge == "both").all()


def test_word_diversity_bounds_and_spot_check(ray_session):
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.curation import QUERIES

    sf = "/root/testdata/sf0.01"
    df = QUERIES["word_diversity"](sf).to_pandas().set_index("doc_id")
    assert (df.n_distinct <= df.n_words).all()
    assert (df.n_distinct >= 1).all()
    assert df.ttr_e6.between(0, 1_000_000).all()
    src = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    row = src.iloc[7]
    toks = [w for w in row.text.lower().split() if w]
    got = df.loc[row.doc_id]
    assert got.n_words == len(toks)
    assert got.n_distinct == len(set(toks))


def test_pack_conversations_order_and_counts(ray_session):
    """Ordered packing: token count equals n_turns, n_turns agrees
    with conv_stats, and the sequence respects turn order (re-derive
    one conversation's expected sequence from the source shards)."""
    import glob

    import pandas as pd
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.curation import q_pack_conversations
    from weakscraper_ray.pipelines.relational import _size_for, q_conv_stats
    from weakscraper_ray.transcripts import ensure_generated

    sf = "/root/testdata/sf0.01"
    df = q_pack_conversations(sf).to_pandas()
    assert (df.role_seq.str.split(" ").str.len() == df.n_turns).all()
    cs = q_conv_stats(sf).to_pandas()
    merged = df.merge(cs[["conv_id", "n_turns"]], on="conv_id", suffixes=("", "_cs"))
    assert len(merged) == len(df)
    assert (merged.n_turns == merged.n_turns_cs).all()
    shards = sorted(glob.glob(f"{ensure_generated(_size_for(sf))}/part-*.parquet"))
    src = pd.concat(
        [pq.read_table(s, columns=["conv_id", "turn_idx", "role"]).to_pandas()
         for s in shards]
    )
    conv = df.conv_id.iloc[0]
    expect = " ".join(
        src[src.conv_id == conv].sort_values("turn_idx").role.tolist()
    )
    assert df.set_index("conv_id").loc[conv, "role_seq"] == expect


def test_oov_rate_vocab_cut_and_bounds(ray_session):
    """OOV counts: bounded by word counts, non-vacuous (the corpus
    vocabulary is larger than the top-K cut), and consistent with an
    independently computed single-threaded vocabulary."""
    from collections import Counter

    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.curation import _OOV_VOCAB_K, QUERIES

    sf = "/root/testdata/sf0.01"
    df = QUERIES["oov_rate"](sf).to_pandas()
    assert (df.n_oov <= df.n_words).all()
    assert df.n_oov.sum() > 0
    src = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    counts = Counter(w for t in src.text for w in t.lower().split() if w)
    vocab = {
        w for w, _ in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:_OOV_VOCAB_K]
    }
    row = src.iloc[11]
    toks = [w for w in row.text.lower().split() if w]
    got = df.set_index("doc_id").loc[row.doc_id]
    assert got.n_words == len(toks)
    assert got.n_oov == sum(1 for w in toks if w not in vocab)


def test_dedup_against_index_filters_known_cross_half_dups(ray_session):
    """The sharded-actor index drops exactly the incoming (odd doc_id)
    docs whose text hash exists in the corpus (even doc_id) half —
    recomputed independently single-threaded. sf0.1 is used because
    sf0.01's documents table has no exact duplicates at all."""
    import hashlib

    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.curation import QUERIES

    sf = "/root/testdata/sf0.1"
    got = set(QUERIES["dedup_against_index"](sf).to_pandas().doc_id)
    src = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"]).to_pandas()
    h = src.text.fillna("").map(lambda t: hashlib.md5(t.encode()).hexdigest())
    corpus = set(h[src.doc_id % 2 == 0])
    expect = set(src.doc_id[(src.doc_id % 2 == 1) & ~h.isin(corpus)])
    assert got == expect
    assert len(expect) < (src.doc_id % 2 == 1).sum()  # non-vacuous: some filtered


def test_mixture_sample_weights_and_determinism(ray_session):
    """Weighted mixture: even-numbered sources kept in full, odd
    sources thinned to ~0.25 (binomial bounds), decision is per-doc
    deterministic (two runs identical)."""
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.curation import QUERIES

    sf = "/root/testdata/sf0.01"
    a = QUERIES["mixture_sample"](sf).to_pandas()
    b = QUERIES["mixture_sample"](sf).to_pandas()
    assert sorted(a.doc_id) == sorted(b.doc_id)
    src = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "source"]).to_pandas()
    num = src.source.str.slice(3).astype(int)
    n_even_src = (num % 2 == 0).sum()
    n_odd_src = (num % 2 == 1).sum()
    kept_num = a.source.str.slice(3).astype(int)
    assert (kept_num % 2 == 0).sum() == n_even_src  # weight 1.0: all kept
    odd_kept = (kept_num % 2 == 1).sum()
    # weight 0.25 with n=250: 3.5 sigma binomial band
    import math

    mu, sd = 0.25 * n_odd_src, math.sqrt(0.25 * 0.75 * n_odd_src)
    assert abs(odd_kept - mu) < 3.5 * sd


def test_embedding_pca_matches_single_threaded_twin(ray_session):
    """Distributed PCA (Gram partials → driver eigh → broadcast
    projection) equals a single-threaded numpy PCA with the same sign
    convention, and satisfies the spectral invariants."""
    import numpy as np
    import pyarrow.parquet as pq

    from weakscraper_ray.functions.embed import fixed_list_to_numpy
    from weakscraper_ray.pipelines.embedding_ops import fit_pca, q_embedding_pca

    sf = "/root/testdata/sf0.001"
    mu, w, vals = fit_pca(sf)
    assert np.allclose(w.T @ w, np.eye(w.shape[1]), atol=1e-10)
    assert (np.diff(vals) <= 1e-12).all() and (vals >= -1e-12).all()

    t = pq.read_table(f"{sf}/embeddings.parquet")
    x = fixed_list_to_numpy(t.column("embedding"), np.float64)
    vid = t.column("vec_id").to_numpy()
    mu2 = x.mean(axis=0)
    cov = (x.T @ x) / len(x) - np.outer(mu2, mu2)
    ev, evec = np.linalg.eigh(cov)
    order = np.argsort(ev)[::-1][: w.shape[1]]
    w2 = evec[:, order]
    flip = w2[np.abs(w2).argmax(axis=0), np.arange(w2.shape[1])] < 0
    w2[:, flip] *= -1.0
    twin = (x - mu2) @ w2

    out = q_embedding_pca(sf).to_pandas().sort_values("vec_id")
    got = np.stack(out["pc"].to_numpy())
    assert got.shape == (len(x), w.shape[1])
    assert np.allclose(got, twin[np.argsort(vid)], atol=1e-4)
    # projected variance reproduces the eigenvalue spectrum
    assert np.allclose(got.var(axis=0), vals, rtol=1e-4)


def test_embedding_dim_stats_matches_duckdb(ray_session):
    """The oracled moment profile agrees with its DuckDB twin exactly
    (integer e6 columns) at sf0.001."""
    import duckdb

    from weakscraper_ray.pipelines import embedding_ops as R

    sf = "/root/testdata/sf0.001"
    mine = (
        R.QUERIES["embedding_dim_stats"](sf)
        .to_pandas()
        .sort_values("dim")
        .reset_index(drop=True)
    )
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW embeddings AS SELECT * FROM "
        f"read_parquet('{sf}/embeddings.parquet')"
    )
    orc = (
        con.execute(R.ORACLE_SQL["embedding_dim_stats"])
        .df()
        .sort_values("dim")
        .reset_index(drop=True)
    )
    assert len(mine) == len(orc) == 64
    for c in ["dim", "n", "mean_e6", "var_e6"]:
        assert (mine[c].to_numpy() == orc[c].to_numpy()).all(), c


def test_levenshtein_dp_matches_duckdb():
    """The numpy row-vectorized DP equals DuckDB's levenshtein() on
    random strings (including empty, equal, and prefix cases)."""
    import random

    import duckdb

    from weakscraper_ray.pipelines.indexing import levenshtein

    rng = random.Random(11)
    con = duckdb.connect()
    cases = [("", ""), ("", "abc"), ("abc", ""), ("same", "same"),
             ("kitten", "sitting"), ("flaw", "lawn")]
    for _ in range(40):
        a = "".join(rng.choice("abcde ") for _ in range(rng.randint(0, 30)))
        b = "".join(rng.choice("abcde ") for _ in range(rng.randint(0, 30)))
        cases.append((a, b))
    for a, b in cases:
        want = con.execute(
            "SELECT levenshtein(?, ?)", [a, b]
        ).fetchone()[0]
        assert levenshtein(a, b) == want, (a, b)


def test_inverted_index_cap_and_exact_df(ray_session):
    """Posting lists are capped at the CAP smallest doc_ids while df
    stays the exact corpus-wide document frequency; matches the
    DuckDB twin exactly."""
    import duckdb

    from weakscraper_ray.pipelines import indexing as R
    from weakscraper_ray.pipelines.indexing import _POSTING_CAP

    sf = "/root/testdata/sf0.001"
    mine = (
        R.QUERIES["inverted_index"](sf)
        .to_pandas()
        .sort_values("w")
        .reset_index(drop=True)
    )
    assert (mine["postings"].str.count(",") + 1 <= _POSTING_CAP).all()
    assert (mine["df"] >= mine["postings"].str.count(",") + 1).all()
    # truncation is visible, not silent: dense tokens have df > CAP
    assert (mine["df"] > _POSTING_CAP).any()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = (
        con.execute(R.ORACLE_SQL["inverted_index"])
        .df()
        .sort_values("w")
        .reset_index(drop=True)
    )
    assert mine.equals(orc[mine.columns])


def test_dedup_edit_blocked_pairs(ray_session):
    """Blocked-Levenshtein dedup finds the known near-dup pairs and
    matches the DuckDB levenshtein twin exactly at sf0.001."""
    import duckdb

    from weakscraper_ray.pipelines import indexing as R

    sf = "/root/testdata/sf0.001"
    mine = (
        R.QUERIES["dedup_edit"](sf)
        .to_pandas()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert len(mine) > 0
    assert (mine["doc_a"] < mine["doc_b"]).all()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = (
        con.execute(R.ORACLE_SQL["dedup_edit"])
        .df()
        .sort_values(["doc_a", "doc_b"])
        .reset_index(drop=True)
    )
    assert mine.equals(orc[mine.columns])


def test_bm25_score_matches_duckdb(ray_session):
    """Two-pass BM25 (corpus stats broadcast → streaming score) equals
    the DuckDB twin exactly (e6 integers) and is monotone in tf for
    fixed dl (spot invariant)."""
    import duckdb

    from weakscraper_ray.pipelines import indexing as R

    sf = "/root/testdata/sf0.001"
    mine = (
        R.QUERIES["bm25_score"](sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert len(mine) > 0 and (mine["bm25_e6"] > 0).all()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = (
        con.execute(R.ORACLE_SQL["bm25_score"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert mine.equals(orc[mine.columns])


def test_pack_budget_prefix_sum_and_oracle(ray_session):
    """Global token-budget packing (two-phase distributed prefix sum)
    equals the exact window-function oracle; pack ids are monotone in
    doc order and no pack exceeds the budget unless a single oversized
    doc opens it."""
    import duckdb
    import numpy as np

    from weakscraper_ray.pipelines import curation as R
    from weakscraper_ray.pipelines.curation import _PACK_BUDGET

    sf = "/root/testdata/sf0.001"
    mine = (
        R.QUERIES["pack_budget"](sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (np.diff(mine["pack_id"].to_numpy()) >= 0).all()
    sums = mine.groupby("pack_id")["n_tokens"].sum()
    singles = mine.groupby("pack_id").size() == 1
    assert ((sums <= 2 * _PACK_BUDGET) | singles).all()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = (
        con.execute(R.ORACLE_SQL["pack_budget"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert mine.equals(orc[mine.columns])


def test_dup_ngram_fraction_matches_duckdb(ray_session):
    """Cross-document duplicate-5-gram counts (shard-hash tagged, no
    joins) equal the DuckDB twin exactly; known near-dup docs carry a
    positive dup count."""
    import duckdb

    from weakscraper_ray.pipelines import indexing as R

    sf = "/root/testdata/sf0.001"
    mine = (
        R.QUERIES["dup_ngram_fraction"](sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (mine["n_dup"] <= mine["n_grams"]).all()
    assert (mine["n_dup"] > 0).any()  # corpus has real near-dups
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = (
        con.execute(R.ORACLE_SQL["dup_ngram_fraction"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert mine.equals(orc[mine.columns])


def test_unigram_logprob_matches_duckdb(ray_session):
    """CCNet-style unigram NLL quality score equals the DuckDB twin
    exactly (e6 integers); scores are positive and finite."""
    import duckdb
    import numpy as np

    from weakscraper_ray.pipelines import curation as R

    sf = "/root/testdata/sf0.001"
    mine = (
        R.QUERIES["unigram_logprob"](sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert (mine["nll_e6"] > 0).all()
    assert np.isfinite(mine["nll_e6"].to_numpy()).all()
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW documents AS SELECT * FROM "
        f"read_parquet('{sf}/documents.parquet')"
    )
    orc = (
        con.execute(R.ORACLE_SQL["unigram_logprob"])
        .df()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )
    assert mine.equals(orc[mine.columns])


def test_context_windows_matches_window_oracle(ray_session):
    """Sliding-window context assembly equals the string_agg OVER
    (ROWS N PRECEDING) oracle per turn, including conversation-start
    truncation."""
    import duckdb

    from weakscraper_ray.pipelines import curation as R

    sf = "/root/testdata/sf0.001"
    key = ["conv_id", "turn_idx"]
    mine = (
        R.QUERIES["context_windows"](sf)
        .to_pandas()
        .sort_values(key)
        .reset_index(drop=True)
    )
    assert len(mine) > 0
    # first turn of each conv has no separator from preceding context
    firsts = mine.groupby("conv_id").head(1)
    assert (~firsts["ctx"].str.contains(r" \| ", regex=True)).all()
    sql = R.dynamic_oracle_sql(sf)["context_windows"]
    orc = (
        duckdb.connect().execute(sql).df().sort_values(key).reset_index(drop=True)
    )
    assert mine.equals(orc[mine.columns])


def test_ks_drift_matches_duckdb(ray_session):
    """Two-sample KS drift statistic (distributed ordered scan over
    value range shards) equals the window-function oracle exactly and
    lies in [0, 1e6]."""
    import duckdb

    from weakscraper_ray.pipelines import analytics as R

    sf = "/root/testdata/sf0.001"
    mine = R.QUERIES["ks_drift"](sf).to_pandas()
    assert len(mine) == 1
    ks = int(mine["ks_e6"].iloc[0])
    assert 0 <= ks <= 1_000_000
    con = duckdb.connect()
    con.execute(
        f"CREATE VIEW events AS SELECT * FROM "
        f"read_parquet('{sf}/events.parquet')"
    )
    orc = con.execute(R.ORACLE_SQL["ks_drift"]).df()
    assert mine.equals(orc[mine.columns])


def test_pagerank_matches_single_threaded_reference(ray_session):
    """The distributed unrolled-iteration PageRank equals an
    independently written single-threaded numpy reference (dense
    scatter-add per iteration) bit-for-bit, and obeys the mass
    invariants (every rank >= teleport floor; floor-division losses
    only ever shrink total mass below the scaled unit)."""
    import numpy as np
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines import graph as G

    sf = "/root/testdata/sf0.001"
    mine = (
        G.QUERIES["pagerank"](sf)
        .to_pandas()
        .sort_values("doc_id")
        .reset_index(drop=True)
    )

    ids = np.sort(
        pq.read_table(f"{sf}/documents.parquet", columns=["doc_id"])
        .column("doc_id")
        .to_numpy()
    )
    n = len(ids)
    tele = ((G._PR_DAMP_DEN - G._PR_DAMP_NUM) * G._PR_MASS) // (G._PR_DAMP_DEN * n)
    # dense reference: doc_ids are 0..n-1 in the synthetic tables
    assert (ids == np.arange(n)).all()
    r = np.full(n, G._PR_MASS // n, dtype=object)  # python ints: no overflow
    for _ in range(G._PR_ITERS):
        nxt = np.full(n, tele, dtype=object)
        contrib = [(int(x) * G._PR_DAMP_NUM) // (G._PR_DAMP_DEN * G._PR_OUTDEG) for x in r]
        for j in range(1, G._PR_OUTDEG + 1):
            dst = (ids * G._PR_KNUTH + j) % n
            for u, d in enumerate(dst):
                nxt[d] += contrib[u]
        r = nxt
    assert (mine["doc_id"].to_numpy() == ids).all()
    assert [int(x) for x in mine["rank_e12"]] == [int(x) for x in r]
    assert (mine["rank_e12"] >= tele).all()
    assert int(mine["rank_e12"].sum()) <= G._PR_MASS


# ---------------------------------------------------------------- round-3 continuation #6: mining family

def test_lsh_index_shard_cap_and_overflow(ray_session):
    """LSHIndexShard caps posting lists at `cap` and counts overflow
    visibly (never silent truncation): adds beyond the cap keep the
    first `cap` ids; lookup returns [] for unknown keys."""
    import ray as _ray

    from weakscraper_ray.state.hash_index import LSHIndexShard

    shard = LSHIndexShard.remote(cap=3)
    _ray.get(shard.add.remote([7, 7, 7, 7, 8], [10, 11, 12, 13, 20]))
    got = _ray.get(shard.lookup.remote([7, 8, 9]))
    assert got[0] == [10, 11, 12]          # capped at 3, insertion order
    assert got[1] == [20]
    assert got[2] == []
    stats = _ray.get(shard.stats.remote())
    assert stats == {"n_buckets": 2, "overflow": 1}


def test_char_stats_kernel_unicode_and_empty():
    """The vectorized codepoint kernel agrees with a per-row Counter
    reference, including non-ASCII codepoints, empty and None rows."""
    from collections import Counter

    import pyarrow as pa

    from weakscraper_ray.pipelines.mining import _char_stats_batch

    texts = ["hello", "", None, "aaéé中中中", "a b a b"]
    batch = pa.table(
        {"doc_id": pa.array(range(len(texts)), pa.int64()),
         "text": pa.array(texts, pa.string())}
    )
    out = _char_stats_batch(batch)
    for i, t in enumerate(texts):
        c = Counter(t or "")
        assert out.column("total_chars")[i].as_py() == len(t or "")
        assert out.column("distinct_chars")[i].as_py() == len(c)
        assert out.column("top_char_count")[i].as_py() == (
            max(c.values()) if c else 0
        )


def test_minhash_against_index_cross_half_only(ray_session):
    """Every emitted pair is (even old, odd new) and is a subset of the
    full dedup_minhash verified pair set restricted to cross-half."""
    from weakscraper_ray.pipelines.mining import q_minhash_against_index
    from weakscraper_ray.pipelines.relational import q_dedup_minhash

    sf = "/root/testdata/sf0.01"
    got = {
        (r["doc_a"], r["doc_b"])
        for r in q_minhash_against_index(sf).take_all()
    }
    assert all(a % 2 == 0 and b % 2 == 1 for a, b in got)
    full = {
        (r["doc_a"], r["doc_b"])
        for r in q_dedup_minhash(sf).take_all()
    }
    # dedup_minhash orients doc_a < doc_b; normalize then restrict
    cross = {
        (a, b) if a % 2 == 0 else (b, a)
        for a, b in full
        if (a % 2) != (b % 2)
    }
    assert got == cross
