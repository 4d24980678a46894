"""Round-2 additions: ANN recall floors vs the exact oracle, stub
contract invariants (so a real decoder can drop in without pipeline
changes), checkpoint sharding validation, and unrouted external
templates (VERDICT r1 items 6/9/10, ADVICE r1 items 4/5)."""

import numpy as np
import pyarrow as pa
import pytest

SF_DIR = "/root/testdata/sf0.01"


# ------------------------------------------------------------- ANN recall

def _topk_sets(df, k=10):
    out = {}
    for qid, g in df.groupby("query_id"):
        out[int(qid)] = set(g["vec_id"].astype(int).tolist()[:k])
    return out


@pytest.fixture(scope="module")
def exact_knn(ray_session):
    from weakscraper_ray.pipelines import relational as R

    df = R.QUERIES["knn_cosine"](SF_DIR).to_pandas()
    df = df.rename(columns={"score_e4": "score"})
    return {
        int(qid): set(g.sort_values(["score", "vec_id"], ascending=[False, True])
                      .head(10)["vec_id"].astype(int).tolist())
        for qid, g in df.groupby("query_id")
    }


def test_knn_lsh_recall(ray_session, exact_knn):
    """Bucketed LSH is approximate by design; assert a measured recall
    floor vs the exact brute-force result so regressions surface."""
    from weakscraper_ray.pipelines import relational as R

    df = R.QUERIES["knn_lsh"](SF_DIR)  # DataFrame (driver-side final reduce)
    hits = total = 0
    for qid, exact in exact_knn.items():
        approx = set(
            df[df["query_id"] == qid]
            .sort_values(["score", "vec_id"], ascending=[False, True])
            .head(10)["vec_id"].astype(int).tolist()
        )
        hits += len(exact & approx)
        total += len(exact)
    recall = hits / total
    # 16-table config measured 0.90 at sf0.01 (VERDICT r3 #7: floor
    # raised to the production-tuned 0.8 bar)
    assert recall >= 0.8, f"knn_lsh recall@10 regressed: {recall:.2f}"


def test_knn_ivf_recall(ray_session, exact_knn):
    from weakscraper_ray.pipelines import relational as R

    df = R.QUERIES["knn_ivf"](SF_DIR)  # DataFrame (driver-side final reduce)
    hits = total = 0
    for qid, exact in exact_knn.items():
        approx = set(
            df[df["query_id"] == qid]
            .sort_values(["score", "vec_id"], ascending=[False, True])
            .head(10)["vec_id"].astype(int).tolist()
        )
        hits += len(exact & approx)
        total += len(exact)
    recall = hits / total
    # nprobe=6 config measured 0.95 at sf0.01 (VERDICT r4 #3: floor
    # raised to the same 0.8 bar as knn_lsh / embedding_neardup)
    assert recall >= 0.8, f"knn_ivf recall@10 regressed: {recall:.2f}"


# ------------------------------------------------- stub contract invariants

def test_multimodal_stage_contract():
    """Schema/partitioning contract a REAL decoder must also satisfy:
    binary payload + typed meta in, fixed-dim float32 features out,
    one row per input row, media_id preserved."""
    from weakscraper_ray.functions.multimodal import (
        MediaFeaturizer,
        make_media_table,
    )

    tbl = make_media_table(32)
    assert tbl.schema.field("payload").type == pa.binary()
    assert pa.types.is_struct(tbl.schema.field("meta").type)
    out = MediaFeaturizer(feature_dim=32)(tbl)
    assert out.num_rows == tbl.num_rows
    assert out.column("media_id").to_pylist() == tbl.column("media_id").to_pylist()
    ftype = out.schema.field("feature").type
    assert pa.types.is_fixed_size_list(ftype) and ftype.list_size == 32
    assert ftype.value_type == pa.float32()


def test_frame_sampler_contract():
    """Video fan-out: only video rows emit frames; >=1 frame each;
    fixed-size frame features."""
    from weakscraper_ray.functions.multimodal import FrameSampler, make_media_table

    tbl = make_media_table(30)
    out = FrameSampler()(tbl)
    videos = {
        m_id
        for m_id, meta in zip(
            tbl.column("media_id").to_pylist(), tbl.column("meta").to_pylist()
        )
        if meta["media_type"] == "video"
    }
    emitted = set(out.column("media_id").to_pylist())
    assert emitted == videos
    assert pa.types.is_fixed_size_list(out.schema.field("frame_feature").type)


def test_pdf_layout_stage_contract():
    """One row per text block; page/block indices dense from 0; bbox
    coords finite float32; kinds from the fixed vocabulary."""
    from weakscraper_ray.functions.layout import (
        BLOCK_FIELDS,
        PdfLayoutParser,
        make_pdf_table,
    )

    tbl = make_pdf_table(16)
    out = PdfLayoutParser()(tbl)
    assert [f.name for f in out.schema] == [n for n, _ in BLOCK_FIELDS]
    assert set(out.column("kind").to_pylist()) <= {"heading", "paragraph", "caption"}
    pages = out.column("page").to_pylist()
    assert min(pages) == 0
    assert np.isfinite(out.column("x0").to_numpy()).all()


# ------------------------------------------------- checkpoint n_shards guard

def test_resume_rejects_different_n_shards(tmp_path, ray_session):
    import ray

    from weakscraper_ray.sources.checkpoint import write_partitioned

    rows = [
        {"conv_id": f"c{i}", "turn_idx": j, "extracted_text": "t"}
        for i in range(4)
        for j in range(3)
    ]
    out_dir = str(tmp_path / "ckpt")
    write_partitioned(ray.data.from_items(rows), out_dir, n_shards=4)
    with pytest.raises(ValueError, match="n_shards"):
        write_partitioned(ray.data.from_items(rows), out_dir, n_shards=8)


# ------------------------------------------------ unrouted external templates

def test_external_templates_first_match_wins(ray_session):
    """route_column=None: rows are matched first-match-wins across all
    supplied templates even though the input still carries the
    generator's template_id column (ADVICE r1: external template dirs
    don't share the input's id space)."""
    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )
    from weakscraper_ray.transcripts import TEMPLATES, ensure_generated

    ds = read_transcripts(ensure_generated("tiny"))
    # external library: same templates but under DIFFERENT ids — routed
    # extraction would pin rows to the wrong template
    shifted = {tid + 7: src for tid, src in enumerate(TEMPLATES)}
    out = extraction_pipeline(
        ds, templates=shifted, restore_ordering=False, route_column=None
    ).to_pandas()
    routed = extraction_pipeline(ds, restore_ordering=False).to_pandas()
    # every row the routed pipeline extracts cleanly must also extract
    # cleanly unrouted (identical text), despite the shifted id space
    key = ["conv_id", "turn_idx"]
    ok_routed = routed[routed["status"] == "ok"].set_index(key)
    ok_unrouted = out[out["status"] == "ok"].set_index(key)
    assert set(ok_routed.index) == set(ok_unrouted.index)
    joined = ok_routed.join(ok_unrouted, lsuffix="_r", rsuffix="_u")
    assert (joined["extracted_text_r"] == joined["extracted_text_u"]).all()


def test_nested_fields_through_pipeline(ray_session):
    """nested=True flows registry → Extractor → fields JSON: captures
    keyed by the template's wp-name hierarchy end-to-end on Ray."""
    import json

    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )
    from weakscraper_ray.transcripts import ensure_generated

    ds = read_transcripts(ensure_generated("tiny"))
    out = extraction_pipeline(ds, restore_ordering=False, nested=True).to_pandas()
    ok = out[(out["status"] == "ok") & (out["template_id"] == 0)]
    assert len(ok) > 0
    f = json.loads(ok.iloc[0]["fields"])
    # template 0 nests paras/body captures under 'body'
    assert isinstance(f["body"], dict) and "content" in f["body"]


def test_manifest_records_input_lineage(tmp_path, ray_session):
    """write_partitioned records which source files fed each partition
    (north-star: per-partition checkpoints recording lineage)."""
    import json
    import os

    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )
    from weakscraper_ray.sources.checkpoint import write_partitioned
    from weakscraper_ray.transcripts import ensure_generated

    src = ensure_generated("tiny")
    ds = read_transcripts(src, include_paths=True)
    out = extraction_pipeline(ds, restore_ordering=False)
    out_dir = str(tmp_path / "ckpt")
    write_partitioned(out, out_dir, n_shards=4)

    mdir = os.path.join(out_dir, "_manifest")
    manifests = [
        json.load(open(os.path.join(mdir, f)))
        for f in os.listdir(mdir)
        if f.endswith(".json") and not f.startswith("_")
    ]
    all_inputs = set()
    for m in manifests:
        assert m["inputs"], "every partition must record its source files"
        all_inputs.update(m["inputs"])
    src_files = {f for f in os.listdir(src) if f.startswith("part-")}
    assert all_inputs == src_files
    # the path column must NOT leak into the data files
    import pyarrow.parquet as pq

    sample = pq.read_table(
        os.path.join(out_dir, f"part={manifests[0]['partition_id']}", "data.parquet")
    )
    assert "path" not in sample.column_names


def test_embedding_neardup_lsh_recall(ray_session):
    """Multi-table LSH near-dup: perfect precision (pairs are
    cosine-verified in-bucket) and a measured recall floor vs the
    exact all-pairs variant."""
    from weakscraper_ray.pipelines import relational as R

    lsh = set(map(tuple, R.QUERIES["embedding_neardup"](SF_DIR)
                  .to_pandas()[["vec_a", "vec_b"]].values.tolist()))
    exact = set(map(tuple, R.QUERIES["embedding_neardup_exact"](SF_DIR)
                    .to_pandas()[["vec_a", "vec_b"]].values.tolist()))
    assert lsh <= exact, "LSH must never emit a below-threshold pair"
    recall = len(lsh & exact) / len(exact)
    # 16-table config measured 0.94 at sf0.01 (VERDICT r3 #7)
    assert recall >= 0.8, f"embedding_neardup recall regressed: {recall:.2f}"


def test_preextract_prune_skips_committed(tmp_path, ray_session):
    """Resume correctness AND economy: committed shards are pruned from
    the RAW input (before extraction); a partially-committed checkpoint
    leaves exactly the uncommitted shards' rows flowing downstream."""
    import os

    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )
    from weakscraper_ray.sources.checkpoint import (
        prune_committed,
        write_partitioned,
    )
    from weakscraper_ray.transcripts import ensure_generated

    src = ensure_generated("tiny")
    out_dir = str(tmp_path / "ckpt")
    n_shards = 4
    total = read_transcripts(src).count()
    write_partitioned(
        extraction_pipeline(read_transcripts(src), restore_ordering=False),
        out_dir, n_shards=n_shards,
    )
    # fully committed → nothing survives the pre-extract prune
    assert prune_committed(read_transcripts(src), out_dir, n_shards).count() == 0
    # drop one shard's manifest (simulates a crash before its commit)
    mdir = os.path.join(out_dir, "_manifest")
    victim = sorted(f for f in os.listdir(mdir) if not f.startswith("_"))[0]
    os.remove(os.path.join(mdir, victim))
    remaining = prune_committed(read_transcripts(src), out_dir, n_shards).count()
    assert 0 < remaining < total
