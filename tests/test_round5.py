"""Round-5 additions (VERDICT r4 worklist): ALWAYS-RUN real-decode
branches — a dependency-free Netpbm image decoder and a pure-Python
uncompressed-PDF text extractor exercised against hand-authored golden
fixtures in every CI run, with zero optional dependencies."""

import numpy as np
import pyarrow as pa
import pytest


# ------------------------------------------------ golden PPM / PGM

def _ppm_bytes(w: int, h: int, rgb_rows: list[list[tuple]]) -> bytes:
    head = f"P6\n# golden fixture\n{w} {h}\n255\n".encode()
    body = bytes(
        c for row in rgb_rows for px in row for c in px
    )
    return head + body


def test_ppm_decoder_golden_pixels():
    """Hand-authored 8x8 P6 with a known checkerboard: the decoder
    must reproduce the exact grayscale values (8x8 source → 8x8 box
    filter is the identity)."""
    from weakscraper_ray.functions.multimodal import _decode_ppm

    rows = [
        [((255, 255, 255) if (x + y) % 2 == 0 else (0, 0, 0))
         for x in range(8)]
        for y in range(8)
    ]
    out = _decode_ppm(_ppm_bytes(8, 8, rows), {})
    assert out.shape == (64,) and out.dtype == np.float32
    want = np.array(
        [1.0 if (x + y) % 2 == 0 else 0.0 for y in range(8) for x in range(8)],
        np.float32,
    )
    assert np.array_equal(out, want)


def test_pgm_decoder_resize_and_comments():
    """P5 grayscale, 16x16 constant blocks + header comment: the box
    resize must average each 2x2 cell exactly; maxval scaling exact."""
    from weakscraper_ray.functions.multimodal import _decode_ppm

    # 16x16: left half 200, right half 40 → resized cells exact
    raster = bytes(
        (200 if x < 8 else 40) for y in range(16) for x in range(16)
    )
    payload = b"P5\n# comment line\n16 16\n255\n" + raster
    out = _decode_ppm(payload, {}).reshape(8, 8)
    assert np.allclose(out[:, :4], 200 / 255)
    assert np.allclose(out[:, 4:], 40 / 255)


def test_ppm_decoder_rejects_garbage_and_truncation():
    from weakscraper_ray.functions.multimodal import _decode_ppm

    with pytest.raises(ValueError, match="magic"):
        _decode_ppm(b"JUNKJUNKJUNK", {})
    with pytest.raises(ValueError, match="truncated"):
        _decode_ppm(b"P6\n4 4\n255\n" + b"\x00" * 10, {})


def test_media_featurizer_ppm_backend_end_to_end():
    """The real-decode branch through the ACTUAL stage class: payload
    in, fixed-dim feature out — what the skipped PIL smoke covered,
    now always-run (VERDICT r4 #2)."""
    from weakscraper_ray.functions.multimodal import (
        MEDIA_META_TYPE,
        MediaFeaturizer,
        phash63,
    )

    rows = [[(16 * (x + 1) - 1,) * 3 for x in range(8)] for _ in range(8)]
    payload = _ppm_bytes(8, 8, rows)
    t = pa.table(
        {
            "media_id": pa.array([7], pa.int64()),
            "payload": pa.array([payload], pa.binary()),
            "meta": pa.array(
                [{"media_type": "image", "format": "ppm", "width": 8,
                  "height": 8, "duration_ms": 0}],
                MEDIA_META_TYPE,
            ),
        }
    )
    out = MediaFeaturizer(decoder="ppm")(t)
    assert out.num_rows == 1 and len(out.column("feature")[0]) == 32
    # monotone-increasing gradient rows → dHash of all-ones gradient
    # bits except at row wrap; determinism across instantiations
    h1 = phash63(payload, {}, decoder="ppm")
    h2 = phash63(payload, {}, decoder="ppm")
    assert h1 == h2 and h1 > 0


# ------------------------------------------------ golden minimal PDF

def _golden_pdf(texts_per_page: list[list[str]]) -> bytes:
    """Hand-authored uncompressed one-stream-per-page PDF with literal
    Tj/TJ operators — valid enough for any real parser, and exactly
    the shape _decode_pdf_mini targets."""
    out = [b"%PDF-1.4\n"]
    obj_no = 1
    for texts in texts_per_page:
        ops = [b"BT /F1 12 Tf 72 720 Td"]
        for i, t in enumerate(texts):
            esc = t.replace("\\", r"\\").replace("(", r"\(").replace(")", r"\)")
            if i % 2 == 0:
                ops.append(b"(" + esc.encode("latin-1") + b") Tj")
            else:
                ops.append(b"[(" + esc.encode("latin-1") + b") -250] TJ")
        ops.append(b"ET")
        body = b" ".join(ops)
        out.append(
            b"%d 0 obj\n<< /Length %d >>\nstream\n%s\nendstream\nendobj\n"
            % (obj_no, len(body), body)
        )
        obj_no += 1
    out.append(b"1 0 obj\n<< /Type /Page /MediaBox [0 0 612 792] >>\nendobj\n")
    out.append(b"%%EOF\n")
    return b"".join(out)


def test_minipdf_decoder_golden_text():
    from weakscraper_ray.functions.layout import _decode_pdf_mini

    pdf = _golden_pdf([["Hello layout", "second run"],
                       ["page two (escaped) \\ done"]])
    blocks = list(_decode_pdf_mini(pdf, 2))
    assert [b[0] for b in blocks] == [0, 1]          # page indices
    assert blocks[0][2] == "paragraph"
    assert blocks[0][3] == "Hello layout second run"
    assert blocks[1][3] == "page two (escaped) \\ done"
    assert blocks[0][4] == (0.0, 0.0, 612.0, 792.0)  # MediaBox honored


def test_minipdf_decoder_fails_fast():
    from weakscraper_ray.functions.layout import _decode_pdf_mini

    with pytest.raises(ValueError, match="%PDF"):
        list(_decode_pdf_mini(b"not a pdf", 1))
    compressed = (
        b"%PDF-1.4\n1 0 obj\n<< /Filter /FlateDecode >>\n"
        b"stream\nxxxx\nendstream\nendobj\n"
    )
    with pytest.raises(ValueError, match="uncompressed"):
        list(_decode_pdf_mini(compressed, 1))


def test_minipdf_decoder_checks_run_at_call():
    """The payload checks fire when the decoder is called, before any
    block is pulled: a caller that stores the result without iterating
    it still sees the error at the call site."""
    from weakscraper_ray.functions.layout import _decode_pdf_mini

    with pytest.raises(ValueError, match="%PDF"):
        _decode_pdf_mini(b"not a pdf", 1)
    with pytest.raises(ValueError, match="uncompressed"):
        _decode_pdf_mini(b"%PDF-1.4\n<< /Filter /FlateDecode >>\n", 1)
    with pytest.raises(ValueError, match="no content streams"):
        _decode_pdf_mini(b"%PDF-1.4\n%%EOF\n", 1)


def test_pdf_layout_parser_minipdf_end_to_end():
    """The real-extraction branch through the ACTUAL stage class —
    what the (still skipped-by-absence) pypdf smoke covered, now
    always-run (VERDICT r4 #2)."""
    from weakscraper_ray.functions.layout import PdfLayoutParser

    pdf = _golden_pdf([["alpha beta"], ["gamma delta"]])
    t = pa.table(
        {
            "doc_id": pa.array([3], pa.int64()),
            "payload": pa.array([pdf], pa.binary()),
            "n_pages": pa.array([2], pa.int32()),
        }
    )
    out = PdfLayoutParser(decoder="minipdf")(t)
    assert out.column("text").to_pylist() == ["alpha beta", "gamma delta"]
    assert out.column("page").to_pylist() == [0, 1]
    assert out.column("doc_id").to_pylist() == [3, 3]


def test_real_decoders_registered_without_import_probe():
    """'ppm' and 'minipdf' must resolve with no optional library
    present (the point of the dependency-free branch)."""
    from weakscraper_ray.functions.layout import resolve_pdf_decoder
    from weakscraper_ray.functions.multimodal import resolve_decoder

    assert callable(resolve_decoder("ppm"))
    assert callable(resolve_pdf_decoder("minipdf"))


# ===================================================== chaos probes
# (VERDICT r4 #5: extend worker-loss coverage beyond the flagship to
# the stateful index-shard actors and the checkpointed sink)

SF_SMALL = "/root/testdata/sf0.001"


def _assert_all_dead(shards, call) -> None:
    """The rebuild loop killed every shard of the failed attempt: none
    restarts to hold a CPU and memory for the rest of the session."""
    import ray
    from ray.exceptions import RayActorError

    for s in shards:
        with pytest.raises(RayActorError):
            ray.get(call(s), timeout=60)


def test_hash_index_shard_death_midprobe_rebuilds(ray_session):
    """Kill one HashIndexShard between build and probe (restart loses
    its in-memory set). The epoch protocol must surface the loss as a
    typed failure, and the driver rebuild loop must re-index and still
    return the EXACT dedup answer — never the silently-wrong result an
    empty restarted shard would give — and kill the failed attempt's
    shards."""
    import ray

    from weakscraper_ray.pipelines.curation import q_dedup_against_index

    clean = sorted(
        q_dedup_against_index(SF_SMALL).to_pandas()["doc_id"].tolist()
    )
    first = []

    def _kill_one(shards):
        ray.kill(shards[1], no_restart=False)
        first.extend(shards)

    chaos = sorted(
        q_dedup_against_index(SF_SMALL, _chaos_after_build=_kill_one)
        .to_pandas()["doc_id"].tolist()
    )
    assert first  # the kill actually happened
    assert chaos == clean and len(clean) > 0
    _assert_all_dead(first, lambda s: s.size.remote())


def test_lsh_index_shard_death_midprobe_rebuilds(ray_session):
    """Same probe for the LSH band index behind minhash_against_index:
    one shard dies post-build; the verified near-dup pair set must be
    identical to the clean run (a lost shard would silently drop every
    candidate routed to it)."""
    import ray

    from weakscraper_ray.pipelines.mining import q_minhash_against_index

    key = lambda df: sorted(
        map(tuple, df[["doc_a", "doc_b"]].values.tolist())
    )
    clean = key(q_minhash_against_index(SF_SMALL).to_pandas())
    first = []

    def _kill_one(shards):
        ray.kill(shards[0], no_restart=False)
        first.extend(shards)

    chaos = key(
        q_minhash_against_index(
            SF_SMALL, _chaos_after_build=_kill_one
        ).to_pandas()
    )
    assert first
    assert chaos == clean and len(clean) > 0
    _assert_all_dead(first, lambda s: s.stats.remote())


def test_index_epoch_detects_buildtime_loss(ray_session):
    """Unit contract: a restart DURING the build phase is caught by
    the next epoch-checked add/seal — whether the loss surfaces as the
    restarted instance's epoch check (IndexShardLost) or as a mid-RPC
    actor error that epoch_rpc converts at the call site — and probing
    an unsealed shard is refused. State loss can never masquerade as
    an empty index, and an UNRELATED failure is NOT classified as
    shard loss (the epoch_rpc narrowing, code-review r5)."""
    import ray
    from ray.exceptions import RayActorError, RayTaskError

    from weakscraper_ray.state.hash_index import (
        HashIndexShard,
        IndexShardLost,
        epoch_rpc,
        is_shard_loss,
    )

    shard = HashIndexShard.options(max_restarts=-1).remote()
    epoch_rpc([shard.begin_build.remote(7)])
    epoch_rpc([shard.add.remote(["aa"], 7)])
    ray.kill(shard, no_restart=False)
    with pytest.raises(IndexShardLost) as ei:
        # restarted instance has no epoch -> the add must refuse;
        # epoch_rpc converts a mid-restart RPC error to the same type
        for _ in range(3):  # first call may race the restart itself
            epoch_rpc([shard.add.remote(["bb"], 7)])
    assert is_shard_loss(ei.value)
    # unsealed probe refused even without a kill
    fresh = HashIndexShard.remote()
    epoch_rpc([fresh.begin_build.remote(9)])
    with pytest.raises((RayTaskError, IndexShardLost)) as ei2:
        epoch_rpc([fresh.contains.remote(["aa"], 9)])
    assert is_shard_loss(ei2.value)
    # precision: an unrelated actor error is NOT shard loss
    assert not is_shard_loss(RayActorError())
    assert not is_shard_loss(RuntimeError("some pipeline bug"))


def test_is_shard_loss_text_match_only_on_ray_wrappers(ray_session):
    """The ``IndexShardLost`` text fallback applies only to Ray's
    wrapper exceptions: a plain error that merely mentions the name is
    not shard loss, while a shard loss that Ray Data re-raises as
    ``RayTaskError(UserCodeException)`` (cause chain cut at the
    wrapper) still is."""
    import ray.data
    from ray.exceptions import RayTaskError

    from weakscraper_ray.state.hash_index import IndexShardLost, is_shard_loss

    assert not is_shard_loss(ValueError("row 7: IndexShardLost in text"))
    try:
        raise RuntimeError("wrapped") from ValueError("IndexShardLost")
    except RuntimeError as e:
        assert not is_shard_loss(e)

    def _lose(batch):
        raise IndexShardLost("shard 3 restarted")

    with pytest.raises(RayTaskError) as ei:
        ray.data.range(4).map_batches(_lose).materialize()
    assert not isinstance(ei.value, IndexShardLost)  # only the text remains
    assert is_shard_loss(ei.value)


def test_write_partitioned_survives_kill_in_commit_window(
    ray_session, tmp_path
):
    """Chaos probe on the sink's claimed commit point: a worker dies
    via os._exit INSIDE the torn window (data file replaced, manifest
    not yet written). The retried task must converge to a fully
    consistent checkpoint — every partition present exactly once,
    manifests matching the data, no stray tmp files — and a subsequent
    resume must rewrite nothing."""
    import os

    from weakscraper_ray.pipelines import run_flagship
    from weakscraper_ray.sources import (
        committed_partitions,
        metrics_rollup,
        write_partitioned,
    )
    from weakscraper_ray.transcripts import ensure_generated

    tiny = ensure_generated("tiny")
    extracted = run_flagship(tiny, batch_size=64, restore_ordering=False)
    flag = str(tmp_path / "killed_once")

    def _hook(shard, phase):
        if phase == "pre_manifest" and not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(1)  # die between data commit and manifest commit

    out = str(tmp_path / "out")
    m = write_partitioned(
        extracted, out, n_shards=8, _chaos_write_hook=_hook
    )
    assert os.path.exists(flag)  # the kill actually happened
    shards = sorted(committed_partitions(out))
    assert sorted(m["partition_id"]) == shards and len(shards) >= 3

    # reference: a clean write of the same input
    ref_out = str(tmp_path / "ref")
    write_partitioned(extracted, ref_out, n_shards=8)
    import pandas as pd
    import pyarrow.parquet as pq

    def _merged(d):
        return (
            pd.concat(
                pq.read_table(f"{d}/part={p}/data.parquet").to_pandas()
                for p in sorted(committed_partitions(d))
            )
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )

    a, b = _merged(out), _merged(ref_out)
    assert len(a) == len(b) > 0
    assert a.duplicated(["conv_id", "turn_idx"]).sum() == 0
    assert a["extracted_text"].fillna("").tolist() == b[
        "extracted_text"
    ].fillna("").tolist()
    assert metrics_rollup(out)["rows"] == len(a)
    # atomic protocol leaves no uncommitted temp files behind
    for p in shards:
        leftovers = [
            f for f in os.listdir(f"{out}/part={p}") if f.endswith(".tmp")
        ]
        assert leftovers == []
    # resume after the chaotic-but-complete run: nothing recomputed
    mtimes = {
        p: os.path.getmtime(f"{out}/part={p}/data.parquet") for p in shards
    }
    m2 = write_partitioned(extracted, out, n_shards=8)
    assert len(m2) == 0
    for p, t in mtimes.items():
        assert os.path.getmtime(f"{out}/part={p}/data.parquet") == t


def test_daily_churn_rejects_day_range_beyond_mask(tmp_path):
    """daily_churn folds each user's active days into one int64 mask,
    so a 62-day range is refused with a ValueError before any Ray work
    (a bare assert would vanish under ``python -O``)."""
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines.tpch_ops import q_daily_churn

    ts = pa.array(
        np.array(["2024-01-01", "2024-03-03"], dtype="datetime64[us]")
    )
    pq.write_table(
        pa.table({"user_id": pa.array([1, 2], pa.int64()), "ts": ts}),
        tmp_path / "events.parquet",
    )
    with pytest.raises(ValueError, match="62"):
        q_daily_churn(str(tmp_path))
