"""End-to-end Ray pipeline conformance (SURVEY.md §5.2 items 1 & 3).

The generated transcripts table carries an expected.parquet oracle
computed from known template fills; the full Ray pipeline (read →
extract tasks → total (conv_id, turn_idx) sort) must reproduce
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


def _order_problems(out) -> list[str]:
    """The ordering contract, checked in arrival order over the whole
    output: (conv_id, turn_idx) keys are strictly ascending, so every
    conversation is one contiguous, turn-ascending run and the output
    is totally ordered."""
    keys = list(zip(out.column("conv_id").to_pylist(),
                    out.column("turn_idx").to_pylist()))
    bad = [i for i in range(1, len(keys)) if keys[i - 1] >= keys[i]]
    return [f"row {i}: {keys[i]} follows {keys[i - 1]}" for i in bad[:3]]


def _arrival_order(ds):
    import pyarrow as pa

    return pa.concat_tables(
        list(ds.iter_batches(batch_size=None, batch_format="pyarrow"))
    )


def _blocks(ds):
    import ray

    return ray.get(ds.to_arrow_refs())


def _assert_matches_oracle(out, expected):
    got = out.to_pandas().set_index(["conv_id", "turn_idx"]).sort_index()
    exp = expected.to_pandas().set_index(["conv_id", "turn_idx"]).sort_index()
    assert len(got) == len(exp)
    assert (got["extracted_text"] == exp["extracted_text"]).all()
    assert (got["fields"] == exp["fields"]).all()


def _split_conversation_table(tiny_dir, out_dir) -> None:
    """A copy of ``tiny`` where one conversation's even turns are moved
    into the other ``part-*.parquet`` file."""
    import pyarrow as pa
    import pyarrow.compute as pc

    p0 = pq.read_table(f"{tiny_dir}/part-0000.parquet")
    p1 = pq.read_table(f"{tiny_dir}/part-0001.parquet")
    conv = p1.column("conv_id")[0].as_py()
    moved = pc.and_(pc.equal(p1.column("conv_id"), conv),
                    pc.equal(pc.bit_wise_and(p1.column("turn_idx"), 1), 0))
    parts = [pa.concat_tables([p0, p1.filter(moved)]), p1.filter(pc.invert(moved))]
    assert all(conv in part.column("conv_id").to_pylist() for part in parts)
    for i, part in enumerate(parts):
        pq.write_table(part, out_dir / f"part-{i:04d}.parquet")


def test_groups_internally_sorted(tiny_dir):
    """restore_order's output arrives totally sorted by
    (conv_id, turn_idx), although the input files interleave
    conversations and shuffle their turns."""
    from weakscraper_ray.pipelines import read_transcripts, extraction_pipeline
    from weakscraper_ray.stages.ordering import restore_order

    extracted = extraction_pipeline(
        read_transcripts(tiny_dir), batch_size=64, restore_ordering=False
    )
    out = _arrival_order(restore_order(extracted))
    assert out.num_rows == 119
    assert _order_problems(out) == []


def test_ordering_with_conversation_split_across_files(tiny_dir, tmp_path):
    """One conversation's turns live in two ``part-*.parquet`` files:
    the flagship's sort still brings them back as one ordered run in a
    totally ordered output, and every turn matches the oracle."""
    from weakscraper_ray.pipelines import run_flagship

    _split_conversation_table(tiny_dir, tmp_path)
    out = _arrival_order(run_flagship(str(tmp_path), batch_size=64))
    assert out.num_rows == 119
    assert _order_problems(out) == []
    _assert_matches_oracle(out, pq.read_table(f"{tiny_dir}/expected.parquet"))


def test_hot_conversation_splits_across_blocks(tiny_dir, tmp_path):
    """Skew bound: a conversation of thousands of turns merged into
    ``tiny`` is split by the sort's (conv_id, turn_idx) range boundaries
    into several output blocks, each a contiguous turn range, so no
    block holds it whole; it still arrives turn-ascending and every
    turn matches the oracle."""
    import shutil

    import pyarrow as pa

    from weakscraper_ray.pipelines import run_flagship
    from weakscraper_ray.transcripts import _generate_chunk

    for i in range(2):
        shutil.copy(f"{tiny_dir}/part-{i:04d}.parquet", tmp_path)
    # conv-00000010 (tiny holds conv-00000000..09), hot: >= 2 * 1500 turns
    _generate_chunk(str(tmp_path), 2, 10, 11, seed=7, html_frac=0.2,
                    error_frac=0.08, hot_frac=1.0, hot_mult=1500,
                    mean_turns=10)
    expected = pa.concat_tables([
        pq.read_table(f"{tiny_dir}/expected.parquet"),
        pq.read_table(tmp_path / ".expected-0002.parquet"),
    ])
    hot = "conv-00000010"
    n_hot = pq.read_table(tmp_path / "part-0002.parquet").num_rows
    assert n_hot >= 3000

    blocks = _blocks(run_flagship(str(tmp_path), batch_size=256))
    holding = [b for b in blocks
               if b.num_rows and hot in b.column("conv_id").to_pylist()]
    assert len(holding) >= 2
    out = pa.concat_tables(blocks)
    assert out.num_rows == 119 + n_hot
    assert _order_problems(out) == []
    _assert_matches_oracle(out, expected)


def test_ordered_blocks_carry_full_schema(tiny_dir, tmp_path):
    """Every block restore_order emits, on ``tiny`` and on the
    split-file table, carries the full output schema: no schema-less
    empty blocks."""
    from weakscraper_ray.pipelines import read_transcripts, extraction_pipeline
    from weakscraper_ray.stages.ordering import restore_order

    _split_conversation_table(tiny_dir, tmp_path)
    for src in (tiny_dir, str(tmp_path)):
        extracted = extraction_pipeline(
            read_transcripts(src), batch_size=64, restore_ordering=False
        )
        want = extracted.schema().names
        blocks = _blocks(restore_order(extracted))
        assert blocks
        assert [b.schema.names for b in blocks] == [want] * len(blocks)


def test_many_block_input_is_coalesced_before_the_sort(tiny_dir):
    """``tiny``'s extract output, repartitioned to 32 blocks, reaches the
    sort as one block per CPU of the 4-CPU session (the gate record
    says so), and the output is still totally ordered and oracle-equal.
    """
    from weakscraper_ray.functions import gates
    from weakscraper_ray.pipelines import read_transcripts, extraction_pipeline
    from weakscraper_ray.stages.ordering import restore_order

    many = extraction_pipeline(
        read_transcripts(tiny_dir), batch_size=64, restore_ordering=False
    ).repartition(32).materialize()
    assert many.num_blocks() == 32
    gates.drain()
    out = _arrival_order(restore_order(many))
    [event] = [e for e in gates.drain() if e["gate"] == "exchange_coalesce"]
    assert event["path"] == "repartition"
    assert (event["blocks_in"], event["blocks_out"]) == (32, 4)
    assert out.num_rows == 119
    assert _order_problems(out) == []
    _assert_matches_oracle(out, pq.read_table(f"{tiny_dir}/expected.parquet"))


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
    the ordering sort reproduces the expected twin exactly."""
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

ds = extraction_pipeline(read_transcripts({src!r}),
                         restore_ordering={restore_ordering!r})
print(sum(b.num_rows for b in ds.iter_batches(batch_format="pyarrow")))
ray.shutdown()
"""


@pytest.mark.parametrize(
    "restore_ordering", [False, True], ids=["extract_only", "salted"]
)
def test_flagship_completes_on_one_cpu(tmp_path, restore_ordering):
    """The flagship must finish on a 1-CPU Ray session, with and
    without the ordering sort (the ``salted`` id names the plan this
    case was written for): the extract stage reserves no CPUs ahead of
    its tasks, and the sort-based shuffle needs no aggregator actors,
    so neither can out-demand a small session. Runs
    in its own process because the tests share one 4-CPU session; the
    process group is killed on timeout so a hang leaves no Ray cluster
    behind."""
    import os
    import signal
    import subprocess
    import sys

    src = ensure_generated("tiny")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [root, env.get("PYTHONPATH")]))
    script = _ONE_CPU_SCRIPT.format(src=src, restore_ordering=restore_ordering)
    proc = subprocess.Popen(
        [sys.executable, "-c", script],
        cwd=str(tmp_path), env=env, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )
    try:
        out, err = proc.communicate(timeout=60)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        pytest.fail(
            f"restore_ordering={restore_ordering} did not finish within "
            "60 s on 1 CPU"
        )
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stray Ray daemons
        except ProcessLookupError:
            pass
    assert proc.returncode == 0, err[-2000:]
    assert int(out.strip().splitlines()[-1]) == 119
