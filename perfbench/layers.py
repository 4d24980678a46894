"""In-process layer timings: the package's public functions called
directly, with no Ray, on one pinned core, over a seeded sample of the
workload's own rows. Each figure is a median over repeats, with the
spread (interquartile range over median) beside it."""

from __future__ import annotations

import glob
import os
import random
import statistics
import time

import pyarrow as pa
import pyarrow.parquet as pq

#: rows per Arrow batch, as the Extractor stage gets them
BATCH_ROWS = 1024
N_BATCHES = 4
REPEATS = 5
#: conv-hash shards used by the salted shuffle on a 4-CPU session
#: (``restore_order``: max(16, 2 x CPUs)) and by the sink (CLI default)
SALT_SHARDS = 16
SINK_SHARDS = 64


def _sample(table_dir: str, seed: int) -> pa.Table:
    """``N_BATCHES`` contiguous 1024-row slices of seeded input files."""
    rng = random.Random(seed)
    files = sorted(glob.glob(os.path.join(table_dir, "part-*.parquet")))
    parts = []
    for _ in range(N_BATCHES):
        t = pq.read_table(rng.choice(files))
        off = rng.randrange(max(1, t.num_rows - BATCH_ROWS))
        parts.append(t.slice(off, BATCH_ROWS))
    return pa.concat_tables(parts).combine_chunks()


def _timed(fn, items, per: float, count: int | None = None) -> dict:
    """Run ``fn`` over ``items`` ``REPEATS`` times; cost per item (or per
    one of ``count`` rows) in units of ``per`` seconds."""
    n = len(items) if count is None else count
    samples = []
    for _ in range(REPEATS):
        t = time.perf_counter()
        for x in items:
            fn(x)
        samples.append((time.perf_counter() - t) / max(1, n) / per)
    med = statistics.median(samples)
    q = statistics.quantiles(samples, n=4)
    return dict(median=med, spread=(q[2] - q[0]) / med if med else 0.0, n=n)


def measure(table_dir: str, seed: int, heuristic: bool, tr) -> dict[str, dict]:
    from weakscraper_ray import dom, heuristic as heur
    from weakscraper_ray.exceptions import TemplateMismatch
    from weakscraper_ray.pipelines.extraction import default_templates
    from weakscraper_ray.sources.checkpoint import add_shard_column
    from weakscraper_ray.stages.extract import Extractor
    from weakscraper_ray.stages.ordering import add_shard_salt
    from weakscraper_ray.template import Template

    sample = _sample(table_dir, seed)
    batches = [sample.slice(i, BATCH_ROWS) for i in range(0, sample.num_rows, BATCH_ROWS)]
    srcs = default_templates()
    compiled = {k: Template(v) for k, v in srcs.items()}
    pages = [(t, tid) for t, tid in zip(sample.column("text").to_pylist(),
                                        sample.column("template_id").to_pylist()) if tid >= 0]
    trees = [(dom.parse(t), compiled[tid]) for t, tid in pages]

    def match(item):
        tree, tmpl = item
        try:
            tmpl.match_tree(tree)
        except TemplateMismatch:
            pass

    def mismatched(t, tid):
        try:
            compiled[tid].match(t)
        except TemplateMismatch:
            return True
        return False

    bad = [t for t, tid in pages if mismatched(t, tid)]
    extractor = Extractor(srcs, heuristic_fallback=heuristic)
    extractor(batches[0])  # compile the registry's templates before timing
    out = {}
    with tr.span("layer.dom.parse"):
        out["dom.parse_us"] = _timed(dom.parse, [t for t, _ in pages], 1e-6)
    with tr.span("layer.template.match"):
        out["template.match_us"] = _timed(match, trees, 1e-6)
    with tr.span("layer.template.compile"):
        out["template.compile_ms"] = _timed(Template, list(srcs.values()), 1e-3)
    with tr.span("layer.heuristic"):
        out["heuristic.page_us"] = _timed(heur.extract_main_content, bad, 1e-6)
    with tr.span("layer.extract"):
        row = _timed(extractor, batches, 1e-6, sample.num_rows)
    out["extract.row_us"] = row
    html_share = len(pages) / sample.num_rows
    out["extract.assembly_us"] = dict(
        median=row["median"] - html_share * (
            out["dom.parse_us"]["median"] + out["template.match_us"]["median"]),
        spread=None, n=sample.num_rows,
    )
    with tr.span("layer.ordering.salt"):
        out["ordering.salt_us"] = _timed(add_shard_salt(SALT_SHARDS), batches, 1e-6,
                                         sample.num_rows)
    with tr.span("layer.checkpoint.shard"):
        out["checkpoint.shard_us"] = _timed(add_shard_column(SINK_SHARDS), batches, 1e-6,
                                            sample.num_rows)
    return out


def measure_pinned(table_dir: str, seed: int, heuristic: bool, tr) -> dict[str, dict]:
    """``measure`` with the calling thread pinned to one CPU."""
    before = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {min(before)})
    try:
        return measure(table_dir, seed, heuristic, tr)
    finally:
        os.sched_setaffinity(0, before)
