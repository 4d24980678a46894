"""End-to-end Ray pipeline conformance (SURVEY.md §5.2 items 1 & 3).

The generated transcripts table carries an expected.parquet oracle
computed from known template fills; the full Ray pipeline (read →
extract tasks → salted groupby ordering restore) must reproduce
it per turn — text equality under stable (conv_id, turn_idx) ordering.
"""

import json

import pyarrow.parquet as pq
import pytest

from weakscraper_ray.transcripts import ensure_generated


@pytest.fixture(scope="module")
def tiny_dir(ray_session):
    return ensure_generated("tiny")


@pytest.fixture(scope="module")
def extracted_df(tiny_dir):
    from weakscraper_ray.pipelines import run_flagship

    ds = run_flagship(tiny_dir, batch_size=64)
    return ds.to_pandas()


def test_schema(extracted_df):
    cols = set(extracted_df.columns)
    assert {
        "conv_id", "turn_idx", "role", "tool", "ts", "template_id",
        "status", "error_kind", "extracted_text", "fields", "spans",
        "nodes_matched", "boilerplate_bytes_stripped",
    } <= cols
    assert "text" not in cols  # payload dropped before shuffles


def test_per_turn_equality_vs_oracle(extracted_df, tiny_dir):
    expected = pq.read_table(f"{tiny_dir}/expected.parquet").to_pandas()
    got = extracted_df.set_index(["conv_id", "turn_idx"]).sort_index()
    exp = expected.set_index(["conv_id", "turn_idx"]).sort_index()
    assert len(got) == len(exp)
    # per-turn text equality + fields JSON equality + error classification
    assert (got["extracted_text"] == exp["extracted_text"]).all()
    assert (got["fields"] == exp["fields"]).all()
    ok = exp["error_kind"] == ""
    assert (got.loc[ok, "status"] == "ok").all()
    assert (got.loc[exp["error_kind"] == "not_html", "status"] == "skipped").all()
    err = ~ok & (exp["error_kind"] != "not_html")
    assert (got.loc[err, "status"] == "error").all()
    # mutated pages fail with a typed kind — template routing means the
    # recorded kind matches the oracle's exactly
    assert (got.loc[err, "error_kind"] == exp.loc[err, "error_kind"]).all()


def test_groups_internally_sorted(tiny_dir):
    """restore_order yields internally-sorted contiguous runs per
    (conv_id, salt) group even though input files are shuffled."""
    from weakscraper_ray.pipelines import read_transcripts, extraction_pipeline

    ds = extraction_pipeline(read_transcripts(tiny_dir), batch_size=64)
    for batch in ds.iter_batches(batch_size=None, batch_format="pyarrow"):
        df = batch.to_pandas()
        for conv, g in df.groupby("conv_id", sort=False):
            # within each group's contiguous run, turn_idx ascends
            deltas = g["turn_idx"].diff().dropna()
            assert (deltas >= 1).all() or len(g) == 1


def test_metrics_populated(extracted_df):
    ok = extracted_df[extracted_df["status"] == "ok"]
    assert (ok["nodes_matched"] > 0).all()
    assert ok["boilerplate_bytes_stripped"].sum() > 0
    # spans decode and index into extracted_text
    sample = ok.head(20)
    for _, row in sample.iterrows():
        for span in row["spans"]:
            assert 0 <= span["start"] <= span["end"] <= len(row["extracted_text"])
        json.loads(row["fields"])


def test_no_route_column_fallback(tiny_dir, ray_session):
    """Without template_id, first-match-wins routing still extracts."""
    from weakscraper_ray.pipelines import read_transcripts, extraction_pipeline

    ds = read_transcripts(tiny_dir, with_route=False)
    out = extraction_pipeline(
        ds, batch_size=64, restore_ordering=False
    ).to_pandas()
    assert (out["status"] == "ok").sum() > 0


def test_user_functions_through_ray(tiny_dir, ray_session):
    """wp-function user post-processors (SURVEY.md D5 / §2.8) ship to
    the extract tasks inside the pickled Extractor and run per capture."""
    import json

    from weakscraper_ray.pipelines import read_transcripts, extraction_pipeline

    def shout(v):
        return v.upper()

    templates = {
        0: "<html><body><wp-ignore/><article>"
           "<h1 wp-name='title' wp-function='shout'></h1><wp-ignore/>"
           "</article><wp-ignore/></body></html>",
    }
    out = extraction_pipeline(
        read_transcripts(tiny_dir),
        templates=templates,
        functions={"shout": shout},
        batch_size=64,
        restore_ordering=False,
    ).to_pandas()
    ok = out[(out["status"] == "ok") & (out["template_id"] == 0)]
    assert len(ok) > 0
    for f in ok["fields"].head(10):
        title = json.loads(f)["title"]
        assert title == title.upper()


def test_per_turn_equality_small_scale(ray_session):
    """Per-turn text equality at 'small' scale (≈20k turns, 1k convs,
    hot conversations, 8 shuffled files): the full pipeline including
    salted ordering restore reproduces the expected twin exactly."""
    import pyarrow.parquet as pq

    from weakscraper_ray.pipelines import run_flagship

    small = ensure_generated("small")
    got = (
        run_flagship(small, batch_size=1024)
        .drop_columns(["spans"])
        .to_pandas()
        .set_index(["conv_id", "turn_idx"])
        .sort_index()
    )
    exp = (
        pq.read_table(f"{small}/expected.parquet")
        .to_pandas()
        .set_index(["conv_id", "turn_idx"])
        .sort_index()
    )
    assert len(got) == len(exp) > 15000
    assert (got["extracted_text"] == exp["extracted_text"]).all()
    assert (got["fields"] == exp["fields"]).all()
    err = exp["error_kind"].isin(["", "not_html"]) == False  # noqa: E712
    assert (got.loc[err, "error_kind"] == exp.loc[err, "error_kind"]).all()


_ONE_CPU_SCRIPT = """
import ray
from ray.data import DataContext

ray.init(address="local", num_cpus=1, object_store_memory=200 * 2**20,
         include_dashboard=False, logging_level="ERROR", log_to_driver=False)
DataContext.get_current().enable_progress_bars = False
from weakscraper_ray.pipelines import extraction_pipeline, read_transcripts

ds = extraction_pipeline(read_transcripts({src!r}), restore_ordering=False)
print(sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow")))
ray.shutdown()
"""


def test_extract_only_completes_on_one_cpu(tmp_path):
    """Extract-only must finish on a 1-CPU Ray session: the stage
    reserves no CPUs ahead of its tasks, so it cannot out-demand a small
    session. Runs in its own process because the tests share one
    4-CPU session; the process group is killed on timeout so a hang
    leaves no Ray cluster behind."""
    import os
    import signal
    import subprocess
    import sys

    src = ensure_generated("tiny")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    proc = subprocess.Popen(
        [sys.executable, "-c", _ONE_CPU_SCRIPT.format(src=src)],
        cwd=str(tmp_path), env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail("extract-only did not finish within 60 s on 1 CPU")
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray Ray daemons
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-2000:]
    assert int(out.strip().splitlines()[-1]) == 119
