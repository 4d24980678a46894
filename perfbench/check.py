"""Output checks, run on every pass outside the timed region.

Each check returns a list of problems; an empty list means the output is
correct. A pass with any problem counts as failed.
"""

from __future__ import annotations

import glob
import json
import os

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from .workloads import CHECK_COLS, KEY, Table, status_histogram


def per_turn(out: pa.Table, table: Table) -> list[str]:
    """Per-turn equality of the checked columns with the oracle, keyed on
    (conv_id, turn_idx), plus the status histogram."""
    got = out.select(KEY + CHECK_COLS).sort_by([(k, "ascending") for k in KEY])
    exp = table.oracle
    if got.num_rows != exp.num_rows:
        return [f"{got.num_rows} output rows, oracle has {exp.num_rows}"]
    problems = []
    for col in KEY + CHECK_COLS:
        a = got.column(col).combine_chunks()
        b = exp.column(col).combine_chunks().cast(a.type)
        if a.equals(b):
            continue
        diff = pc.invert(pc.fill_null(pc.equal(a, b), False))
        i = pc.index(diff, True).as_py()
        problems.append(
            f"{col} differs at ({got['conv_id'][i]}, {got['turn_idx'][i]}): "
            f"{a[i].as_py()!r:.80} != {b[i].as_py()!r:.80}"
        )
    hist, want = status_histogram(got), table.histogram()
    if hist != want:
        problems.append(f"status histogram {hist} != oracle {want}")
    return problems


def contiguous(out: pa.Table, turns_per_group: int) -> list[str]:
    """In arrival order, each conversation's rows form turn-sorted runs,
    at most one run per salt bucket (``turn_idx // turns_per_group``)."""
    conv = out.column("conv_id").to_pylist()
    turn = out.column("turn_idx").to_pylist()
    runs: dict[str, int] = {}
    buckets: dict[str, set] = {}
    problems = []
    for i, (c, t) in enumerate(zip(conv, turn)):
        buckets.setdefault(c, set()).add(t // turns_per_group)
        if i and conv[i - 1] == c:
            if turn[i - 1] >= t and len(problems) < 3:
                problems.append(f"{c}: turn {t} follows turn {turn[i - 1]}")
        else:
            runs[c] = runs.get(c, 0) + 1
    split = [c for c, n in runs.items() if n > len(buckets[c])]
    if split:
        problems.append(
            f"{len(split)} conversations split beyond their salt buckets, e.g. "
            f"{split[0]} in {runs[split[0]]} runs over {len(buckets[split[0]])} buckets"
        )
    return problems


def read_sink(out_dir: str) -> dict[int, pa.Table]:
    return {
        int(os.path.basename(os.path.dirname(p))[len("part="):]): pq.read_table(p)
        for p in glob.glob(os.path.join(out_dir, "part=*", "data.parquet"))
    }


def sink(out_dir: str, table: Table, n_shards: int) -> tuple[list[str], dict]:
    """A committed sink: per-turn equality over all partitions, manifest
    rows equal input rows, and every partition holds whole conversations
    of its own shard. Returns the problems and the sink's snapshot."""
    from weakscraper_ray.sources.checkpoint import metrics_rollup, shard_of

    snap = snapshot(out_dir)
    parts = snap["parts"]
    if not parts:
        return ["the sink wrote no partition"], snap
    problems = per_turn(pa.concat_tables(parts.values()), table)
    rolled = metrics_rollup(out_dir)
    if rolled["rows"] != table.rows:
        problems.append(f"manifests roll up {rolled['rows']} rows, input has {table.rows}")
    if rolled["partitions"] != len(parts):
        problems.append(f"{rolled['partitions']} manifests for {len(parts)} partitions")
    for p, t in sorted(parts.items()):
        wrong = [c for c in pc.unique(t.column("conv_id")).to_pylist() if shard_of(c, n_shards) != p]
        if wrong:
            problems.append(f"partition {p} holds {wrong[0]} of shard {shard_of(wrong[0], n_shards)}")
            break
    return problems, snap


def snapshot(out_dir: str) -> dict:
    """Partition data and manifests, for comparing a resume to a fresh write."""
    mdir = os.path.join(out_dir, "_manifest")
    manifests = {}
    for f in os.listdir(mdir):
        if f.endswith(".json") and not f.startswith("_"):
            with open(os.path.join(mdir, f)) as fh:
                manifests[f] = json.load(fh)
    return dict(parts=read_sink(out_dir), manifests=manifests)


def same_sink(fresh: dict, resumed: dict) -> list[str]:
    problems = []
    if fresh["manifests"] != resumed["manifests"]:
        diff = sorted(set(fresh["manifests"]) ^ set(resumed["manifests"])) or sorted(
            k for k in fresh["manifests"] if fresh["manifests"][k] != resumed["manifests"].get(k)
        )
        problems.append(f"resumed manifests differ from the fresh write: {diff[:3]}")
    if fresh["parts"].keys() != resumed["parts"].keys():
        problems.append("resumed partitions differ from the fresh write")
    else:
        for p, t in fresh["parts"].items():
            if not t.equals(resumed["parts"][p]):
                problems.append(f"resumed partition {p} differs from the fresh write")
                break
    return problems
