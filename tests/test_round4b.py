"""Round-4 property tests: the gated drop-set helpers must agree
between their broadcast and hash-exchange paths on arbitrary inputs
(the paths only ever disagree if the exchange fallback has a sharding
or empty-group bug — exactly the class of defect small fixed examples
miss)."""

import numpy as np
import pyarrow as pa
from hypothesis import given, settings, strategies as st

ids = st.lists(st.integers(min_value=0, max_value=200), max_size=40)


def _pairs_ds(a_vals, b_vals):
    import ray.data

    return ray.data.from_arrow(
        pa.table(
            {
                "doc_a": pa.array(a_vals, pa.int64()),
                "doc_b": pa.array(b_vals, pa.int64()),
            }
        )
    )


def _ids_ds(vals):
    import ray.data

    return ray.data.from_arrow(
        pa.table({"doc_id": pa.array(vals, pa.int64())})
    )


@settings(max_examples=12, deadline=None)
@given(a=ids, b=ids, drops=ids)
def test_anti_member_filter_paths_agree(ray_session, a, b, drops):
    from weakscraper_ray.functions.dedup import anti_member_filter

    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    schema = pa.schema([("doc_a", pa.int64()), ("doc_b", pa.int64())])
    dset = set(drops)
    want = sorted(
        (x, y) for x, y in zip(a, b) if x not in dset and y not in dset
    )
    for bmax in (10**6, 0):
        got = anti_member_filter(
            _pairs_ds(a, b), ["doc_a", "doc_b"], _ids_ds(drops),
            schema=schema, broadcast_max=bmax,
        ).to_pandas()
        if len(got) == 0:
            # an empty result may surface schema-less from to_pandas
            assert want == []
            continue
        assert sorted(map(tuple, got[["doc_a", "doc_b"]].values)) == want


@settings(max_examples=12, deadline=None)
@given(base=st.lists(st.integers(0, 100), min_size=1, max_size=30,
                     unique=True),
       data=st.data())
def test_tag_disjoint_stages_paths_agree(ray_session, base, data):
    from weakscraper_ray.functions.dedup import tag_disjoint_stages

    # carve two disjoint drop subsets out of base (the helper contract)
    d1 = data.draw(st.lists(st.sampled_from(base), max_size=10,
                            unique=True))
    rest = [x for x in base if x not in set(d1)]
    d2 = data.draw(
        st.lists(st.sampled_from(rest), max_size=10, unique=True)
    ) if rest else []
    want = {
        x: (1 if x in set(d1) else 2 if x in set(d2) else 0) for x in base
    }
    for bmax in (10**6, 0):
        got = tag_disjoint_stages(
            _ids_ds(base), "doc_id",
            [(_ids_ds(d1), "doc_id", 1), (_ids_ds(d2), "doc_id", 2)],
            broadcast_max=bmax,
        ).to_pandas()
        assert dict(zip(got["doc_id"], got["stage"])) == want


@settings(max_examples=30, deadline=None)
@given(st.lists(st.tuples(st.integers(1, (1 << 32)),
                          st.integers(0, (1 << 61) - 2)),
                min_size=1, max_size=64))
def test_mulmod61_property(pairs):
    from weakscraper_ray.pipelines.curation import _STRUCT_M, _mulmod61

    small = np.array([p[0] for p in pairs], np.uint64)
    h = np.array([p[1] for p in pairs], np.uint64)
    got = _mulmod61(small, h)
    want = np.array(
        [(int(a) * int(b)) % _STRUCT_M for a, b in pairs], np.uint64
    )
    assert np.array_equal(got, want)


def test_extract_pipeline_survives_worker_kill(ray_session, tmp_path):
    """Chaos probe: an upstream actor worker process dies mid-run
    (os._exit — the OOM-kill / node-loss shape) while feeding the
    extract tasks. With the killer's max_restarts/max_task_retries
    settings the pipeline must complete with the full row count and
    correct per-turn results; with Ray's actor defaults this HANGS
    (measured)."""
    import os

    import pyarrow as pa

    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )
    from weakscraper_ray.transcripts import ensure_generated

    flag = str(tmp_path / "killed_once")

    class _Killer:
        def __call__(self, batch: pa.Table) -> pa.Table:
            if not os.path.exists(flag):
                open(flag, "w").close()
                os._exit(1)  # simulate worker loss, exactly once
            return batch

    src = ensure_generated("tiny")
    # one killer actor holds one CPU of the 4-CPU test session; the
    # read and extract tasks share the rest
    ds = read_transcripts(src).map_batches(
        _Killer, batch_size=32, concurrency=1, batch_format="pyarrow",
        max_restarts=-1, max_task_retries=-1,
    )
    out = extraction_pipeline(ds, restore_ordering=False)
    df = out.to_pandas()
    ref = extraction_pipeline(
        read_transcripts(src), restore_ordering=False
    ).to_pandas()
    assert len(df) == len(ref)
    key = ["conv_id", "turn_idx"]
    a = df.sort_values(key).reset_index(drop=True)
    b = ref.sort_values(key).reset_index(drop=True)
    assert a["extracted_text"].fillna("").tolist() == b[
        "extracted_text"
    ].fillna("").tolist()
    assert os.path.exists(flag)  # the kill actually happened


def test_full_pipeline_with_shuffle_survives_worker_kill(
    ray_session, tmp_path
):
    """Chaos probe #2: the kill lands between extract and the ordering
    SORT, inside restore_order's materialize() barrier — upstream task
    retry must complete the barrier, and the sort's map/reduce tasks
    must then give correct, fully ordered results."""
    import os

    import pyarrow as pa

    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )
    from weakscraper_ray.stages.ordering import restore_order
    from weakscraper_ray.transcripts import ensure_generated

    flag = str(tmp_path / "killed_once")

    class _Killer:
        def __call__(self, batch: pa.Table) -> pa.Table:
            if not os.path.exists(flag):
                open(flag, "w").close()
                os._exit(1)
            return batch

    src = ensure_generated("tiny")
    # the killer actor and the extract tasks share the 4-CPU test
    # session (only the killer reserves a CPU); the sort runs after the
    # barrier
    base = extraction_pipeline(read_transcripts(src), restore_ordering=False)
    wounded = base.map_batches(
        _Killer, batch_size=32, concurrency=1, batch_format="pyarrow",
        max_restarts=-1, max_task_retries=-1,
    )
    df = restore_order(wounded).to_pandas()
    ref = (
        restore_order(
            extraction_pipeline(read_transcripts(src), restore_ordering=False)
        ).to_pandas()
    )
    assert len(df) == len(ref)
    # contract under retries: identical per-turn CONTENT under the
    # stable key
    key = ["conv_id", "turn_idx"]
    a = df.sort_values(key).reset_index(drop=True)
    b = ref.sort_values(key).reset_index(drop=True)
    assert a["extracted_text"].fillna("").tolist() == b[
        "extracted_text"
    ].fillna("").tolist()
    # and the ordering stage's own invariant still holds on the
    # wounded run: the emitted row stream is totally ordered by the key,
    # so within each conversation turns appear in ascending turn_idx
    keys = list(zip(df["conv_id"], df["turn_idx"]))
    assert keys == sorted(keys)
    assert os.path.exists(flag)


def test_extract_stage_survives_own_worker_kill(ray_session, tmp_path):
    """Chaos probe on the Extractor's OWN worker: a wp-function kills
    the extract task's process once (os._exit) mid-match. Ray Data's
    task retries must rerun the lost batch so the run ends with the
    same rows and the same ``fields`` as an unkilled run."""
    import os

    from weakscraper_ray.pipelines.extraction import (
        extraction_pipeline,
        read_transcripts,
    )
    from weakscraper_ray.transcripts import ensure_generated

    flag = str(tmp_path / "killed_once")

    def die_once(v):
        if not os.path.exists(flag):
            open(flag, "w").close()
            os._exit(1)  # simulate worker loss, exactly once
        return v

    templates = {
        0: "<html><body><wp-ignore/><article>"
           "<h1 wp-name='title' wp-function='die_once'></h1><wp-ignore/>"
           "</article><wp-ignore/></body></html>",
    }
    src = ensure_generated("tiny")

    def run():
        return (
            extraction_pipeline(
                read_transcripts(src), templates=templates,
                functions={"die_once": die_once}, restore_ordering=False,
            )
            .to_pandas()
            .sort_values(["conv_id", "turn_idx"])
            .reset_index(drop=True)
        )

    wounded = run()
    assert os.path.exists(flag)  # the kill actually happened
    ref = run()  # flag present: the same function no longer kills
    assert len(wounded) == len(ref) == 119
    assert (wounded["status"] == "ok").sum() > 0
    assert wounded["fields"].tolist() == ref["fields"].tolist()
    assert wounded["status"].tolist() == ref["status"].tolist()
