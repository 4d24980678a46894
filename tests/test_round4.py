"""Round-4 additions (VERDICT r3 worklist): the pluggable decoder
registries behind the stub contracts, the hill_tail closed-form census
fold, the gated drop-set plumbing behind dedup_chain, and the
vectorized structural-fingerprint kernel."""

import numpy as np
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.01"


# ----------------------------------------------- pluggable backends

def test_media_decoder_registry_contract():
    from weakscraper_ray.functions.multimodal import (
        _decode_stub,
        resolve_decoder,
    )

    assert resolve_decoder("stub") is _decode_stub
    assert resolve_decoder(_decode_stub) is _decode_stub  # callables pass
    with pytest.raises(ValueError):
        resolve_decoder("no-such-backend")


def test_media_stub_backend_unchanged():
    """Default construction and decoder='stub' must be byte-identical
    (the oracle twins depend on the stub path staying fixed)."""
    from weakscraper_ray.functions.multimodal import (
        MediaFeaturizer,
        make_media_table,
    )

    t = make_media_table(16)
    assert MediaFeaturizer()(t).equals(MediaFeaturizer(decoder="stub")(t))


def test_pdf_stub_backend_unchanged():
    from weakscraper_ray.functions.layout import (
        PdfLayoutParser,
        make_pdf_table,
    )

    t = make_pdf_table(16)
    assert PdfLayoutParser()(t).equals(PdfLayoutParser(decoder="stub")(t))


# ------------------------------------- hill_tail closed-form contract

def test_hill_tail_closed_form_equals_expanded(ray_session):
    """The per-distinct-value fold must equal the O(k) multiset
    expansion it replaced (VERDICT r3 #5)."""
    from weakscraper_ray.pipelines.inequality import _value_census
    from weakscraper_ray.pipelines.moments import q_hill_tail
    from weakscraper_ray.pipelines.relational import _i64_away_np

    cen = _value_census(SF_DIR)
    v = cen["v"].to_numpy(np.int64)
    c = cen["c"].to_numpy(np.int64)
    n = int(c.sum())
    k = n // 10
    # reference: the expanded top-(k+1) multiset walk (the old shape)
    top_vals = []
    need = k + 1
    for vi, ci in zip(v[::-1], c[::-1]):
        take = min(int(ci), need)
        top_vals.extend([int(vi)] * take)
        need -= take
        if need == 0:
            break
    xk1 = top_vals[k]
    t9 = _i64_away_np(
        np.log(np.array(top_vals[:k], dtype=np.float64) / xk1), 1e9
    ).astype(np.int64)
    expected = int(t9.sum())

    got = q_hill_tail(SF_DIR).to_pandas()
    assert int(got["hill_num_e9"].iloc[0]) == expected
    assert int(got["k"].iloc[0]) == k


# --------------------------------------- gated drop-set plumbing

def _ids_ds(ids):
    import ray.data

    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(ids, pa.int64())})
    )


def test_anti_member_filter_broadcast_vs_exchange(ray_session):
    """Both gated paths must produce the same surviving rows."""
    from weakscraper_ray.functions.dedup import anti_member_filter

    import ray.data

    schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])
    pairs = ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array([1, 2, 3, 4, 5], pa.int64()),
                "doc_b": pa.array([6, 7, 8, 9, 10], pa.int64()),
            }
        )
    )
    drops = _ids_ds([2, 9])
    want = {(1, 6), (3, 8), (5, 10)}

    for bmax in (10**6, 0):  # broadcast path, then forced exchange path
        got = anti_member_filter(
            pairs, ["doc_a", "doc_b"], drops, schema=schema,
            broadcast_max=bmax,
        ).to_pandas()
        assert set(map(tuple, got[["doc_a", "doc_b"]].values)) == want


def test_tag_disjoint_stages_both_paths(ray_session):
    from weakscraper_ray.functions.dedup import tag_disjoint_stages

    base = _ids_ds(list(range(10)))
    d1 = _ids_ds([1, 3])
    d2 = _ids_ds([5])
    want = {i: (1 if i in (1, 3) else 2 if i == 5 else 0) for i in range(10)}
    for bmax in (10**6, 0):
        got = tag_disjoint_stages(
            base, "doc_id", [(d1, "doc_id", 1), (d2, "doc_id", 2)],
            broadcast_max=bmax,
        ).to_pandas()
        assert dict(zip(got["doc_id"], got["stage"])) == want
        assert len(got) == 10


# ------------------------------ structural fingerprint kernel contract

def test_mulmod61_matches_python_ints():
    from weakscraper_ray.pipelines.curation import (
        _STRUCT_M,
        _mulmod61,
        _red61,
    )

    rng = np.random.RandomState(7)
    small = rng.randint(1, 1 << 32, size=256).astype(np.uint64)
    h = rng.randint(0, _STRUCT_M, size=256).astype(np.uint64)
    got = _mulmod61(small, h)
    want = np.array(
        [(int(a) * int(b)) % _STRUCT_M for a, b in zip(small, h)],
        dtype=np.uint64,
    )
    assert np.array_equal(got, want)
    x = rng.randint(0, 1 << 63, size=256).astype(np.uint64) * np.uint64(2)
    assert np.array_equal(
        _red61(x), np.array([int(v) % _STRUCT_M for v in x], np.uint64)
    )
