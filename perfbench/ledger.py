"""Spans recorded around the benchmark's calls into the program, and the
per-operator ledger read from each run's ``ds.stats()``.

Spans live in memory and are written out once, when the benchmark ends.
Times are ``time.perf_counter()`` seconds, which on Linux is
CLOCK_MONOTONIC and so shares its origin with the operator start and end
times Ray Data records in its worker processes.
"""

from __future__ import annotations

import contextlib
import re
import time

#: operator slugs reported as ``ray.<slug>.{wall_s,cpu_s,rows}``; the
#: first pattern that matches an operator name wins
OP_SLUGS = (
    ("read", r"^ReadParquet"),
    ("extract", r"^MapBatches\(Extractor\)"),
    ("add_key", r"^MapBatches\(_add\)"),
    ("prune", r"^MapBatches\(_filter\)"),
    ("hash_shuffle", r"^Shuffle\("),
    ("sort_group", r"^MapBatches\(_sort_group\)"),
    ("sink_shuffle", r"^Sort(Map|Reduce|Sample)"),
    ("sink_write", r"^MapBatches\(<lambda>\)"),
    ("other", r""),
)


class Tracer:
    """In-memory spans: name, start, end, parent index and run id."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.run = ""
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        rec = self._open(name, time.perf_counter())
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def mark(self, name: str, start: float, end: float) -> None:
        self._open(name, start)["end"] = end

    def _open(self, name: str, start: float) -> dict:
        rec = dict(name=name, start=start, end=None, run=self.run,
                   parent=self._stack[-1] if self._stack else None)
        self.spans.append(rec)
        return rec


class NullTracer:
    """The untraced mode: same interface, records nothing."""

    run = ""

    def span(self, name: str):
        return contextlib.nullcontext()

    def mark(self, name: str, start: float, end: float) -> None:
        pass


@contextlib.contextmanager
def capture_datasets():
    """Collect every Dataset that is materialised with ``to_pandas``.

    ``write_partitioned`` runs its plan inside the package and returns
    only the manifest rows, so its Dataset (and its stats) are reached
    by wrapping the Ray method for the duration of the call."""
    import ray.data

    seen: list = []
    orig = ray.data.Dataset.to_pandas

    def to_pandas(self, *a, **kw):
        seen.append(self)
        return orig(self, *a, **kw)

    ray.data.Dataset.to_pandas = to_pandas
    try:
        yield seen
    finally:
        ray.data.Dataset.to_pandas = orig


def _summaries(summary) -> list:
    out = []
    for parent in summary.parents:
        out.extend(_summaries(parent))
    out.extend(summary.operators_stats)
    return out


def op_stats(ds) -> dict:
    """Per-operator totals of one executed Dataset.

    Returns ``{"ops": [{name, slug, wall_s, cpu_s, rows, start, end}],
    "text": ds.stats()}``: ``wall_s``/``cpu_s`` are summed over the
    operator's tasks, ``rows`` are its output rows, and ``start``/``end``
    bound its span (``perf_counter`` seconds)."""
    ops = []
    for o in _summaries(ds._get_stats_summary()):
        name = o.operator_name
        # a hash shuffle reports "<op>_shuffle" and "<op>_finalize" parts;
        # the sink's sort shuffle "SortMap" and "SortReduce"
        slug = next(s for s, pat in OP_SLUGS if re.search(pat, name))
        ops.append(dict(
            name=name, slug=slug,
            wall_s=float(o.wall_time.get("sum", 0.0) if o.wall_time else 0.0),
            cpu_s=float(o.cpu_time.get("sum", 0.0) if o.cpu_time else 0.0),
            rows=int(o.output_num_rows.get("sum", 0) if o.output_num_rows else 0),
            start=o.earliest_start_time, end=o.latest_end_time,
        ))
    return {"ops": ops, "text": ds.stats()}


def by_slug(ops: list[dict]) -> dict[str, dict]:
    """Fold operators into their slugs: summed wall/cpu, the rows of the
    slug's last part, and the union span."""
    out: dict[str, dict] = {}
    for o in ops:
        agg = out.setdefault(o["slug"], dict(wall_s=0.0, cpu_s=0.0, rows=0, start=None, end=None))
        agg["wall_s"] += o["wall_s"]
        agg["cpu_s"] += o["cpu_s"]
        agg["rows"] = o["rows"]
        if o["start"] is not None:
            agg["start"] = o["start"] if agg["start"] is None else min(agg["start"], o["start"])
            agg["end"] = o["end"] if agg["end"] is None else max(agg["end"], o["end"])
    return out


def self_times(spans: list[dict]) -> dict[str, float]:
    """Summed self time per span name: duration minus children's."""
    child = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            child[s["parent"]] += s["end"] - s["start"]
    out: dict[str, float] = {}
    for i, s in enumerate(spans):
        out[s["name"]] = out.get(s["name"], 0.0) + (s["end"] - s["start"]) - child[i]
    return out
