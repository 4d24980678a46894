"""The three workloads: seeded input tables, their oracles, and the timed
usage path each one drives.

Inputs come from the package's own generator
(``weakscraper_ray.transcripts.generate``) with its own knobs. The
generator takes its table shape from ``transcripts.SIZES``; the presets
there are either too small (``small``) or far too large (``bench``) for a
repeated run on a 4-CPU box, so each workload registers its own shape
under a ``perfbench-`` key at run time.
"""

from __future__ import annotations

import contextlib
import glob
import os
import random
import shutil
import time
from dataclasses import dataclass, field

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

#: per-turn output contract checked against the oracle
KEY = ["conv_id", "turn_idx"]
CHECK_COLS = ["template_id", "extracted_text", "fields", "error_kind", "status"]

#: partitions of the checkpointed sink (the CLI's ``--shards`` default)
SINK_SHARDS = 64

#: generated tables kept on disk; older seeds are evicted
KEEP_TABLES = 30


@dataclass(frozen=True)
class Workload:
    name: str
    shape: dict
    knobs: dict
    heuristic: bool
    why: str
    #: optional second generator call whose conversations are all hot,
    #: merged into the table under ``hot-`` conversation ids
    hot: dict | None = None


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "extract_stream",
            dict(n_convs=5000, mean_turns=10, n_files=8),
            dict(html_frac=0.9, error_frac=0.02, hot_frac=0.002, hot_mult=20),
            heuristic=False,
            why="HTML-heavy, few mismatches, extract-only streamed to the "
                "driver: parse, match and the actor pool do all the work",
        ),
        Workload(
            "ordered_shuffle",
            dict(n_convs=5000, mean_turns=6, n_files=8),
            dict(html_frac=0.1, error_frac=0.08, hot_frac=0.0),
            heuristic=False,
            why="run_flagship with the salted shuffle on a text-heavy table "
                "with hot conversations: the exchange dominates, parse is cheap",
            # 6 conversations of 2, 3, 4, ... x 2,100 turns: every one is
            # longer than a 4,096-turn salt bucket, and their count is fixed
            hot=dict(shape=dict(n_convs=6, mean_turns=1, n_files=2),
                     knobs=dict(hot_frac=1.0, hot_mult=2100)),
        ),
        Workload(
            "checkpoint_sink",
            dict(n_convs=5000, mean_turns=6, n_files=8),
            dict(html_frac=0.6, error_frac=0.4, hot_frac=0.002, hot_mult=20),
            heuristic=True,
            why="CLI path on a mismatch-heavy table: prune, heuristic "
                "fallback, partitioned parquet sink, then a resume",
        ),
    )
}


@dataclass
class Table:
    """A generated input table plus its per-turn oracle."""

    dir: str
    rows: int
    oracle: pa.Table = field(repr=False)

    def histogram(self) -> dict[str, int]:
        return status_histogram(self.oracle)


def status_histogram(t: pa.Table) -> dict[str, int]:
    counts = {"ok": 0, "error": 0, "heuristic": 0, "skipped": 0}
    for row in pc.value_counts(t.column("status")).to_pylist():
        counts[row["values"]] = row["counts"]
    return counts


def _register_shape(key: str, shape: dict) -> None:
    from weakscraper_ray import transcripts

    transcripts.SIZES.setdefault(key, dict(shape))


def _generate(out_dir: str, size: str, seed: int, knobs: dict) -> None:
    from weakscraper_ray import transcripts

    tmp = out_dir + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    transcripts.generate(tmp, size=size, seed=seed, **knobs)
    os.replace(tmp, out_dir)


def _add_hot(table_dir: str, wl: Workload, seed: int) -> None:
    """Generate ``wl.hot`` and merge it into ``table_dir``.

    A hot share drawn with ``hot_frac`` makes the table size swing with
    the seed (each hot conversation is thousands of turns, and how many
    there are is binomial); a separate call with ``hot_frac=1`` fixes
    their number. The generator numbers conversations from 0 in every
    call, so the merged ones are renamed ``hot-conv-...``."""
    size = f"perfbench-{wl.name}-hot"
    _register_shape(size, wl.hot["shape"])
    hot_dir = table_dir + ".hot"
    _generate(hot_dir, size, seed, dict(wl.knobs, **wl.hot["knobs"]))

    def rename(t: pa.Table) -> pa.Table:
        i = t.schema.get_field_index("conv_id")
        return t.set_column(i, "conv_id", pc.binary_join_element_wise("hot", t["conv_id"], "-"))

    for p in sorted(glob.glob(os.path.join(hot_dir, "part-*.parquet"))):
        name = "part-hot-" + os.path.basename(p)[len("part-"):]
        pq.write_table(rename(pq.read_table(p)), os.path.join(table_dir, name))
    exp_path = os.path.join(table_dir, "expected.parquet")
    merged = pa.concat_tables([
        pq.read_table(exp_path),
        rename(pq.read_table(os.path.join(hot_dir, "expected.parquet"))),
    ])
    pq.write_table(merged, exp_path)
    shutil.rmtree(hot_dir)


def _oracle(table_dir: str, heuristic: bool) -> pa.Table:
    """The generator's expected twin plus the status each turn must get.

    With ``heuristic_fallback`` a mismatched page whose text-density
    heuristic finds content becomes ``status="heuristic"`` with that text;
    the twin has no heuristic column, so those rows are completed here
    from the program's own heuristic over the input page."""
    exp = pq.read_table(os.path.join(table_dir, "expected.parquet"))
    kind = exp.column("error_kind")
    status = pc.if_else(
        pc.equal(kind, ""), "ok", pc.if_else(pc.equal(kind, "not_html"), "skipped", "error")
    )
    exp = exp.append_column("status", status)
    if heuristic:
        from weakscraper_ray.heuristic import extract_main_content

        src = pa.concat_tables(
            pq.read_table(p, columns=KEY + ["text"])
            for p in sorted(glob.glob(os.path.join(table_dir, "part-*.parquet")))
        )
        exp = exp.join(src, KEY, join_type="left outer")
        texts = exp.column("text").to_pylist()
        st = exp.column("status").to_pylist()
        ext = exp.column("extracted_text").to_pylist()
        for i, s in enumerate(st):
            if s == "error":
                out, _ = extract_main_content(texts[i])
                if out:
                    st[i], ext[i] = "heuristic", out
        exp = exp.drop_columns(["text", "status", "extracted_text"])
        exp = exp.append_column("extracted_text", pa.array(ext, pa.string()))
        exp = exp.append_column("status", pa.array(st, pa.string()))
    return exp.select(KEY + CHECK_COLS).sort_by([(k, "ascending") for k in KEY])


def prepare(wl: Workload, seed: int, data_root: str, tiny: bool = False) -> Table:
    """Generate (or reuse) the workload's table for ``seed``.

    ``tiny=True`` gives the generator's 119-row preset with the same
    knobs, used to warm a session up."""
    size = "tiny" if tiny else f"perfbench-{wl.name}"
    if not tiny:
        _register_shape(size, wl.shape)
    d = os.path.join(data_root, f"{'tiny-' if tiny else ''}{wl.name}-s{seed}")
    oracle_path = os.path.join(d, "oracle.parquet")
    if not os.path.exists(oracle_path):
        shutil.rmtree(d, ignore_errors=True)
        _generate(d, size, seed, wl.knobs)
        if wl.hot and not tiny:
            _add_hot(d, wl, seed)
        pq.write_table(_oracle(d, wl.heuristic), oracle_path + ".tmp")
        os.replace(oracle_path + ".tmp", oracle_path)
        _evict(data_root)
    os.utime(d)
    oracle = pq.read_table(oracle_path)
    return Table(d, oracle.num_rows, oracle)


def _evict(data_root: str) -> None:
    dirs = sorted(
        (p for p in glob.glob(os.path.join(data_root, "*")) if os.path.isdir(p)),
        key=os.path.getmtime,
    )
    for p in dirs[:-KEEP_TABLES]:
        shutil.rmtree(p, ignore_errors=True)


# -- timed usage paths ---------------------------------------------------


@dataclass
class PassResult:
    """One run of a workload's path. Times are seconds."""

    wall_s: float
    first_batch_s: float
    t0: float
    batches: list = field(default_factory=list, repr=False)
    datasets: list = field(default_factory=list, repr=False)


def _stream(ds, tr, t0: float) -> tuple[list, float]:
    """Consume ``ds`` at the driver; returns (batches, first batch time)."""
    batches: list = []
    first = None
    with tr.span("consume"):
        c0 = time.perf_counter()
        for b in ds.iter_batches(batch_format="pyarrow", batch_size=None):
            if first is None:
                first = time.perf_counter()
                tr.mark("first_batch", c0, first)
            batches.append(b)
    if first is None:
        raise RuntimeError("the pipeline produced no output batch")
    return batches, first - t0


def run_extract_stream(table: Table, tr, out_dir=None, capture=None) -> PassResult:
    from weakscraper_ray.pipelines.extraction import extraction_pipeline, read_transcripts

    t0 = time.perf_counter()
    with tr.span("read_transcripts"):
        ds = read_transcripts(table.dir)
    with tr.span("extraction_pipeline"):
        ds = extraction_pipeline(ds, restore_ordering=False)
    batches, first = _stream(ds, tr, t0)
    return PassResult(time.perf_counter() - t0, first, t0, batches, [ds])


def run_ordered_shuffle(table: Table, tr, out_dir=None, capture=None) -> PassResult:
    from weakscraper_ray.pipelines.extraction import run_flagship

    t0 = time.perf_counter()
    with tr.span("run_flagship"):
        ds = run_flagship(table.dir)
    batches, first = _stream(ds, tr, t0)
    return PassResult(time.perf_counter() - t0, first, t0, batches, [ds])


def _sink_plan(table: Table, out_dir: str, tr):
    from weakscraper_ray.pipelines.extraction import extraction_pipeline, read_transcripts
    from weakscraper_ray.sources.checkpoint import prune_committed

    with tr.span("read_transcripts"):
        ds = read_transcripts(table.dir, include_paths=True)
    with tr.span("prune_committed"):
        ds = prune_committed(ds, out_dir, SINK_SHARDS)
    with tr.span("extraction_pipeline"):
        return extraction_pipeline(ds, restore_ordering=False, heuristic_fallback=True)


def run_checkpoint_sink(table: Table, tr, out_dir: str, capture=None) -> PassResult:
    """One CLI-shaped write into ``out_dir``: fresh, or a resume when
    partitions are already committed there. The sink hands the driver
    its manifest rows only when every partition is committed, so its
    first batch arrives at the end of the run."""
    from weakscraper_ray.sources.checkpoint import write_partitioned

    t0 = time.perf_counter()
    ds = _sink_plan(table, out_dir, tr)
    with tr.span("write_partitioned"), (capture or contextlib.nullcontext)() as captured:
        write_partitioned(ds, out_dir, n_shards=SINK_SHARDS, resume=True, has_shard=True)
    wall = time.perf_counter() - t0
    return PassResult(wall, wall, t0, datasets=list(captured or []))


def run_extract_only(table: Table, tr, wl: Workload, out_dir: str) -> PassResult:
    """The workload's read and extract settings with no exchange and no
    sink, streamed to the driver: the base of ``exchange_s``."""
    if not wl.heuristic:
        return run_extract_stream(table, tr)
    t0 = time.perf_counter()
    ds = _sink_plan(table, out_dir, tr)
    batches, first = _stream(ds, tr, t0)
    return PassResult(time.perf_counter() - t0, first, t0, batches, [ds])


PATHS = {
    "extract_stream": run_extract_stream,
    "ordered_shuffle": run_ordered_shuffle,
    "checkpoint_sink": run_checkpoint_sink,
}


def remove_half(out_dir: str, seed: int) -> list[int]:
    """Remove a seeded half of the committed partitions (data and
    manifest), as if the job had died after committing the other half."""
    from weakscraper_ray.sources.checkpoint import committed_partitions

    done = sorted(committed_partitions(out_dir))
    gone = sorted(random.Random(seed).sample(done, len(done) // 2))
    for p in gone:
        os.remove(os.path.join(out_dir, "_manifest", f"{p}.json"))
        shutil.rmtree(os.path.join(out_dir, f"part={p}"))
    return gone
