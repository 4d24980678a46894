"""Round-4 additions (VERDICT r3 worklist): pluggable decoder/encoder
backends behind the stub contracts, the hill_tail closed-form census
fold, the gated drop-set plumbing behind dedup_chain, and the
vectorized structural-fingerprint kernel."""

import numpy as np
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.01"


# ----------------------------------------------- pluggable backends

def _have(mod: str) -> bool:
    try:
        __import__(mod)
        return True
    except ImportError:
        return False


def test_media_decoder_registry_contract():
    from weakscraper_ray.functions.multimodal import (
        _decode_stub,
        resolve_decoder,
    )

    assert resolve_decoder("stub") is _decode_stub
    assert resolve_decoder(_decode_stub) is _decode_stub  # callables pass
    with pytest.raises(ValueError):
        resolve_decoder("no-such-backend")


@pytest.mark.skipif(_have("PIL"), reason="PIL installed — gate n/a")
def test_media_pil_backend_fails_fast_without_pillow():
    from weakscraper_ray.functions.multimodal import MediaFeaturizer

    with pytest.raises(ImportError, match="pillow"):
        MediaFeaturizer(decoder="pil")


@pytest.mark.skipif(not _have("PIL"), reason="Pillow not installed")
def test_media_pil_backend_smoke():
    import io

    from PIL import Image

    from weakscraper_ray.functions.multimodal import (
        MEDIA_META_TYPE,
        MediaFeaturizer,
    )

    buf = io.BytesIO()
    Image.new("L", (16, 16), 128).save(buf, format="PNG")
    t = pa.table(
        {
            "media_id": pa.array([0], pa.int64()),
            "payload": pa.array([buf.getvalue()], pa.binary()),
            "meta": pa.array(
                [{"media_type": "image", "format": "png", "width": 16,
                  "height": 16, "duration_ms": 0}],
                MEDIA_META_TYPE,
            ),
        }
    )
    out = MediaFeaturizer(decoder="pil")(t)
    assert out.num_rows == 1 and len(out.column("feature")[0]) == 32


def test_media_stub_backend_unchanged():
    """Default construction and decoder='stub' must be byte-identical
    (the oracle twins depend on the stub path staying fixed)."""
    from weakscraper_ray.functions.multimodal import (
        MediaFeaturizer,
        make_media_table,
    )

    t = make_media_table(16)
    assert MediaFeaturizer()(t).equals(MediaFeaturizer(decoder="stub")(t))


@pytest.mark.skipif(_have("pypdf"), reason="pypdf installed — gate n/a")
def test_pdf_pypdf_backend_fails_fast_without_lib():
    from weakscraper_ray.functions.layout import PdfLayoutParser

    with pytest.raises(ImportError, match="pypdf"):
        PdfLayoutParser(decoder="pypdf")


def test_pdf_stub_backend_unchanged():
    from weakscraper_ray.functions.layout import (
        PdfLayoutParser,
        make_pdf_table,
    )

    t = make_pdf_table(16)
    assert PdfLayoutParser()(t).equals(PdfLayoutParser(decoder="stub")(t))


@pytest.mark.skipif(
    _have("sentence_transformers"), reason="library installed — gate n/a"
)
def test_text_encoder_st_backend_fails_fast_without_lib():
    from weakscraper_ray.functions.embed import TextEncoder

    with pytest.raises(ImportError, match="sentence-transformers"):
        TextEncoder(backend="sentence-transformers")


@pytest.mark.skipif(
    not _have("sentence_transformers"),
    reason="sentence-transformers not installed",
)
def test_text_encoder_st_backend_smoke():
    from weakscraper_ray.functions.embed import TextEncoder

    enc = TextEncoder(backend="sentence-transformers")
    t = pa.table(
        {"doc_id": pa.array([0, 1], pa.int64()),
         "text": pa.array(["hello world", "another document"])}
    )
    out = enc(t)
    emb = np.asarray(out.column("embedding").combine_chunks().flatten())
    assert out.num_rows == 2
    # contract: unit-norm rows
    m = emb.reshape(2, -1)
    assert np.allclose(np.linalg.norm(m, axis=1), 1.0, atol=1e-3)


def test_text_encoder_unknown_backend():
    from weakscraper_ray.functions.embed import TextEncoder

    with pytest.raises(ValueError):
        TextEncoder(backend="nope")


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


# ------------------------------------------------- ORC source parity

def test_orc_source_equals_parquet_source(tmp_path, ray_session):
    """The ORC transcripts source feeds the identical pipeline and
    yields byte-identical extraction results to the parquet source
    (fifth input format; ns→µs ts normalization inside the decode)."""
    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        parquet_dir_to_orc,
        read_transcripts,
        read_transcripts_orc,
    )
    from weakscraper_ray.transcripts import ensure_generated

    src = ensure_generated("tiny")
    odir = str(tmp_path / "orc")
    n = parquet_dir_to_orc(src, odir)
    assert n > 0

    key = ["conv_id", "turn_idx"]
    a = (
        extraction_pipeline(read_transcripts(src), restore_ordering=False)
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    b = (
        extraction_pipeline(read_transcripts_orc(odir), restore_ordering=False)
        .to_pandas().sort_values(key).reset_index(drop=True)
    )
    for col in ["conv_id", "turn_idx", "template_id", "status", "error_kind",
                "extracted_text", "fields"]:
        assert (a[col] == b[col]).all(), col


def test_orc_sink_roundtrip_and_manifests(ray_session, tmp_path):
    """fmt='orc' sink: atomic parts + manifests identical in shape to
    the parquet sink; content round-trips through pyarrow.orc
    (per-turn extracted_text equality vs the dataset itself)."""
    import glob
    import os

    import pandas as pd
    from pyarrow import orc as _orc

    from weakscraper_ray.pipelines import run_flagship
    from weakscraper_ray.sources.checkpoint import write_partitioned
    from weakscraper_ray.transcripts import ensure_generated

    ds = run_flagship(
        ensure_generated("tiny"), batch_size=64, restore_ordering=False,
    )
    out = str(tmp_path / "orc_sink")
    mf = write_partitioned(ds, out, n_shards=4, fmt="orc")
    assert len(mf) == 4
    parts = sorted(glob.glob(os.path.join(out, "part=*", "data.orc")))
    assert len(parts) == 4
    back = pd.concat([_orc.read_table(p).to_pandas() for p in parts])
    src = ds.to_pandas()
    assert len(back) == len(src) == mf.rows.sum()
    key = ["conv_id", "turn_idx"]
    a = back.sort_values(key).reset_index(drop=True)
    b = src.sort_values(key).reset_index(drop=True)
    assert a.extracted_text.fillna("").tolist() == b.extracted_text.fillna("").tolist()
    # resume: a second write over the same dir is a no-op (all committed)
    mf2 = write_partitioned(ds, out, n_shards=4, fmt="orc")
    assert len(mf2) == 0
