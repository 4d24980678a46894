"""Self-tests of the benchmark on the generator's tiny preset.

    python3 -m pytest perfbench/tests -q

Each workload runs once and passes its output check, and each check is
shown to fail on a planted defect.
"""

from __future__ import annotations

import os
import shutil

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from perfbench import check, layers, ledger, session
from perfbench.bench import Runner
from perfbench.workloads import SINK_SHARDS, WORKLOADS, prepare

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
SEED = 5


@pytest.fixture(scope="module")
def work(tmp_path_factory):
    d = str(tmp_path_factory.mktemp("perfbench"))
    # Ray's workers import the package through PYTHONPATH, not sys.path
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [ROOT, os.environ.get("PYTHONPATH")]))
    session.start(d)
    yield d
    session.stop()


def _runner(name: str, work: str) -> Runner:
    wl = WORKLOADS[name]
    table = prepare(wl, SEED, os.path.join(work, "data"), tiny=True)
    return Runner(wl, table, SEED, os.path.join(work, name))


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_passes_its_check(name, work):
    runner = _runner(name, work)
    session.wait_idle()
    rec = runner.one_pass(ledger.NullTracer())
    assert rec["problems"] == []
    assert rec["histogram"] == runner.table.histogram()
    assert rec["wall_s"] > 0 and rec["first_batch_s"] > 0 and min(rec["resumes"]) > 0


def _stream_output(name: str, work: str) -> tuple[pa.Table, Runner]:
    from perfbench.workloads import PATHS

    runner = _runner(name, work)
    session.wait_idle()
    res = PATHS[name](runner.table, ledger.NullTracer())
    return pa.concat_tables(res.batches), runner


def test_check_rejects_wrong_extracted_text(work):
    out, runner = _stream_output("extract_stream", work)
    assert check.per_turn(out, runner.table) == []
    texts = out.column("extracted_text").to_pylist()
    i = next(i for i, s in enumerate(out.column("status").to_pylist()) if s == "ok")
    texts[i] += " planted"
    bad = out.set_column(out.schema.get_field_index("extracted_text"), "extracted_text",
                         pa.array(texts, pa.string()))
    problems = check.per_turn(bad, runner.table)
    assert problems and "extracted_text" in problems[0]


def test_check_rejects_split_conversation(work):
    from weakscraper_ray.stages.ordering import DEFAULT_TURNS_PER_GROUP

    out, _ = _stream_output("ordered_shuffle", work)
    assert check.contiguous(out, DEFAULT_TURNS_PER_GROUP) == []
    # move the first row of a multi-turn conversation to the end
    conv = out.column("conv_id")
    counts = pc.value_counts(conv).to_pylist()
    target = next(c["values"] for c in counts if c["counts"] > 2)
    i = pc.index(conv, target).as_py()
    split = pa.concat_tables([out.slice(0, i), out.slice(i + 1), out.slice(i, 1)])
    assert check.contiguous(split, DEFAULT_TURNS_PER_GROUP)


def test_check_rejects_missing_partition(work):
    runner = _runner("checkpoint_sink", work)
    session.wait_idle()
    rec = runner.one_pass(ledger.NullTracer())
    assert rec["problems"] == []
    sink = runner.sink_dir
    problems, fresh = check.sink(sink, runner.table, SINK_SHARDS)
    assert problems == []
    p = min(fresh["parts"])
    shutil.rmtree(os.path.join(sink, f"part={p}"))
    problems, damaged = check.sink(sink, runner.table, SINK_SHARDS)
    assert problems
    assert check.same_sink(fresh, damaged)


def test_layers_measure_every_layer(work):
    table = prepare(WORKLOADS["checkpoint_sink"], SEED, os.path.join(work, "data"), tiny=True)
    tr = ledger.Tracer()
    out = layers.measure_pinned(table.dir, SEED, True, tr)
    assert set(out) == {
        "dom.parse_us", "template.match_us", "template.compile_ms", "heuristic.page_us",
        "extract.row_us", "extract.assembly_us", "ordering.salt_us", "checkpoint.shard_us",
    }
    assert all(out[k]["median"] > 0 for k in out if k != "extract.assembly_us")
    assert {s["name"] for s in tr.spans} >= {"layer.dom.parse", "layer.extract"}
