"""The transcript format table (``sources/formats.py``): every format
reads back the parquet source's table, every format's sink parts round
trip with manifests and resume, unknown formats are refused, and the
CLI drives each format in and out."""

import glob
import json
import os
import subprocess
import sys

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest
from pyarrow import orc

from weakscraper_ray.sources.formats import FORMATS, convert_dir
from weakscraper_ray.transcripts import ROW_SCHEMA, ensure_generated

KEY = ["conv_id", "turn_idx"]


def _sorted(ds) -> pd.DataFrame:
    return ds.to_pandas().sort_values(KEY).reset_index(drop=True)


# ------------------------------------------------------------- source

@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_format_write_then_read(fmt, tmp_path):
    """Each entry's ``read`` gives back what its ``write`` wrote, in
    ``ROW_SCHEMA`` types once cast, pruned to the asked-for columns."""
    from weakscraper_ray.sources.formats import to_row_schema

    src = ensure_generated("tiny")
    t = pq.read_table(sorted(glob.glob(os.path.join(src, "part-*.parquet")))[0])
    path = str(tmp_path / f"t.{FORMATS[fmt].suffix}")
    FORMATS[fmt].write(t, path)
    with open(path, "rb") as fh:
        back = FORMATS[fmt].read(pa.py_buffer(fh.read()), ["text", "ts", "nope"])
    assert to_row_schema(back).equals(t.select(["text", "ts"]))

@pytest.mark.parametrize("fmt", ["jsonl", "csv", "orc"])
def test_source_equals_parquet_source(fmt, tmp_path, ray_session):
    """Each non-parquet source reads the same table as the parquet
    source (every ``ROW_SCHEMA`` column, types and values, including
    ``ts`` and ``tool``), and the pipeline over it yields byte-identical
    extraction results (quoted multi-line HTML survives CSV; ORC's ns
    ``ts`` comes back at µs)."""
    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )

    src = ensure_generated("tiny")
    fdir = str(tmp_path / fmt)
    assert convert_dir(src, fdir, fmt) > 0

    pq_ds, fmt_ds = read_transcripts(src), read_transcripts(fdir, fmt=fmt)
    assert fmt_ds.schema().names == pq_ds.schema().names == ROW_SCHEMA.names
    assert fmt_ds.schema().types == pq_ds.schema().types
    a, b = _sorted(pq_ds), _sorted(fmt_ds)
    for col in ROW_SCHEMA.names:
        assert a[col].equals(b[col]), col

    a = _sorted(extraction_pipeline(pq_ds, restore_ordering=False))
    b = _sorted(extraction_pipeline(fmt_ds, restore_ordering=False))
    for col in ["conv_id", "turn_idx", "template_id", "status", "error_kind",
                "extracted_text", "fields"]:
        assert (a[col] == b[col]).all(), col


def test_csv_source_types_tool_in_every_shard(tmp_path, ray_session):
    """A CSV shard with no tool turns still reads ``tool`` as a string
    ``""`` (not an inferred ``null`` column), so both shards' blocks
    carry the parquet source's schema."""
    from weakscraper_ray.pipelines.extraction import read_transcripts

    src = ensure_generated("tiny")
    t = pq.read_table(sorted(glob.glob(os.path.join(src, "part-*.parquet")))[0])
    roles = t.column("role").to_pylist()
    only_user = t.take([roles.index("user")])
    FORMATS["csv"].write(only_user, str(tmp_path / "part-0.csv"))
    FORMATS["csv"].write(t, str(tmp_path / "part-1.csv"))

    blocks = list(
        read_transcripts(str(tmp_path), fmt="csv")
        .iter_batches(batch_size=None, batch_format="pyarrow")
    )
    assert sum(b.num_rows for b in blocks) == 1 + t.num_rows
    for b in blocks:
        assert b.schema.field("tool").type == pa.string()
    first = next(b for b in blocks if b.num_rows == 1)
    assert first.column("tool").to_pylist() == [""]


@pytest.mark.parametrize("layout", ["dir", "file"])
def test_unsharded_source_blocks_carry_schema(layout, tmp_path, ray_session):
    """A directory of ``*.orc`` files not named ``part-*``, or a single
    file, reads as one block per file: no block is schema-less, and
    the rows equal the parquet read of the same files."""
    import ray

    from weakscraper_ray.pipelines.extraction import read_transcripts

    src = ensure_generated("tiny")
    parts = sorted(glob.glob(os.path.join(src, "part-*.parquet")))[:2]
    for i, part in enumerate(parts):
        FORMATS["orc"].write(pq.read_table(part), str(tmp_path / f"shard{i}.orc"))
    if layout == "file":
        parts = parts[:1]
        path = str(tmp_path / "shard0.orc")
    else:
        path = str(tmp_path)

    want = read_transcripts(src).schema().names
    blocks = ray.get(read_transcripts(path, fmt="orc").to_arrow_refs())
    for b in blocks:
        assert b.schema.names == want
    got = pa.concat_tables(blocks).to_pandas().sort_values(KEY)
    ref = pq.read_table(parts, columns=want).to_pandas().sort_values(KEY)
    pd.testing.assert_frame_equal(
        got.reset_index(drop=True), ref.reset_index(drop=True)
    )


# --------------------------------------------------------------- sink

_READ_BACK = {
    "parquet": lambda p: pq.read_table(p).to_pandas(),
    "jsonl": lambda p: pd.read_json(p, lines=True),
    "csv": pd.read_csv,  # RFC-4180 quoting survives embedded quotes
    "orc": lambda p: orc.read_table(p).to_pandas(),
}


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_sink_roundtrip_and_manifests(fmt, ray_session, tmp_path):
    """``fmt`` sink: atomic parts + one manifest per partition; content
    round-trips through an independent reader (per-turn
    extracted_text equality vs the dataset itself); a second write
    over the same dir is a no-op (all committed)."""
    from weakscraper_ray.pipelines import run_flagship
    from weakscraper_ray.sources.checkpoint import write_partitioned

    ds = run_flagship(
        ensure_generated("tiny"), batch_size=64, restore_ordering=False,
    )
    out = str(tmp_path / f"{fmt}_sink")
    mf = write_partitioned(ds, out, n_shards=4, fmt=fmt)
    assert len(mf) == 4
    parts = sorted(glob.glob(os.path.join(out, "part=*", f"data.{fmt}")))
    assert len(parts) == 4
    back = pd.concat([_READ_BACK[fmt](p) for p in parts])
    src = ds.to_pandas()
    assert len(back) == len(src) == mf.rows.sum()
    a = back.sort_values(KEY).reset_index(drop=True)
    b = src.sort_values(KEY).reset_index(drop=True)
    assert a.extracted_text.fillna("").tolist() == b.extracted_text.fillna("").tolist()
    mf2 = write_partitioned(ds, out, n_shards=4, fmt=fmt)
    assert len(mf2) == 0


def test_unknown_format_is_refused(ray_session, tmp_path):
    """An unknown format raises on the driver, naming the known ones,
    before the sink writes any partition (it used to fall back to
    JSONL parts)."""
    import ray.data

    from weakscraper_ray.pipelines.extraction import read_transcripts
    from weakscraper_ray.sources.checkpoint import write_partitioned

    out = tmp_path / "out"
    ds = ray.data.from_items([{"conv_id": "c0", "turn_idx": 0}])
    with pytest.raises(ValueError, match="csv, jsonl, orc, parquet"):
        write_partitioned(ds, str(out), n_shards=2, fmt="parq")
    assert not glob.glob(str(out / "part=*"))
    with pytest.raises(ValueError, match="csv, jsonl, orc, parquet"):
        read_transcripts(ensure_generated("tiny"), fmt="parq")


# ---------------------------------------------------------------- CLI

def _cli_extract(inp: str, out, *flags: str) -> dict:
    """One ``extract`` run in a fresh process; returns its roll-up."""
    r = subprocess.run(
        [sys.executable, "-m", "weakscraper_ray", "extract",
         "--input", inp, "--out", str(out),
         "--num-cpus", "4", "--shards", "4", *flags],
        capture_output=True, text=True, cwd=os.path.dirname(os.path.dirname(__file__)),
        timeout=300,
    )
    assert r.returncode == 0, r.stderr[-2000:]
    return json.loads(r.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def parquet_rollup(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "out_parquet"
    return _cli_extract(ensure_generated("tiny"), out, "--no-lineage")


@pytest.mark.parametrize("fmt", ["jsonl", "csv", "orc"])
def test_cli_extract_input_format(fmt, parquet_rollup, tmp_path):
    """CLI ``--format``: same roll-up metrics as the parquet run over
    the same logical table."""
    fdir = tmp_path / fmt
    convert_dir(ensure_generated("tiny"), str(fdir), fmt)
    roll = _cli_extract(str(fdir), tmp_path / "out", "--format", fmt, "--no-lineage")
    assert roll == parquet_rollup


def test_cli_extract_orc_out_format(parquet_rollup, tmp_path):
    """CLI ``--out-format orc``: ORC parts, same roll-up as the parquet
    sink."""
    out = tmp_path / "out"
    roll = _cli_extract(ensure_generated("tiny"), out, "--out-format", "orc",
                        "--no-lineage")
    assert roll == parquet_rollup
    assert len(glob.glob(str(out / "part=*" / "data.orc"))) == roll["partitions"]


def test_cli_extract_csv_lineage(tmp_path):
    """CLI ``--format csv`` with lineage on: every manifest lists the
    ``part-*.csv`` shards that fed it, and together they name all."""
    cdir = tmp_path / "csv"
    convert_dir(ensure_generated("tiny"), str(cdir), "csv")
    out = tmp_path / "out"
    _cli_extract(str(cdir), out, "--format", "csv")
    inputs = set()
    for m in glob.glob(str(out / "_manifest" / "[0-9]*.json")):
        with open(m) as fh:
            names = json.load(fh)["inputs"]
        assert names, "every partition must record its source files"
        inputs.update(names)
    assert inputs == set(os.listdir(cdir))
    assert all(n.startswith("part-") and n.endswith(".csv") for n in inputs)
