"""Deterministic synthetic transcripts tables (FIXTURES.md §1).

Generates the engine's primary input — a Parquet table of multi-turn
conversation/agent transcripts with the exact schema mandated by
BASELINE.json's ``input_hint``: ``(conv_id: string, turn_idx: int32,
role: string, text: string, tool: string, ts: timestamp[us])`` — plus
an ``expected.parquet`` twin holding the per-turn oracle
``(conv_id, turn_idx, template_id, extracted_text, fields, error_kind)``
computed at generation time from the known template fills (via the
unit-tested pure-Python matcher).

Properties exercised on purpose:
- rows written SHUFFLED across multiple files → the pipeline's stable
  (conv_id, turn_idx) ordering restore (SURVEY.md R4) is real work;
- ~1% of conversations are HOT (many turns) → the ordering sort's
  split of a conversation across reducers (R3) is real;
- a fraction of HTML turns are MUTATED to mismatch their template →
  the error-as-data path (§2.6) is exercised end-to-end;
- non-HTML turns (plain lorem text) → the R1 HTML filter is real.

Everything flows from one ``random.Random(seed)``; timestamps are a
fixed epoch + arithmetic (no wall clock).
"""

from __future__ import annotations

import datetime as _dt
import json
import random

import pyarrow as pa
import pyarrow.parquet as pq

from .render import render
from .template import Template
from .exceptions import TemplateMismatch

#: The template library rendered into transcripts. Literal anchor words
#: are deliberately disjoint from render._WORDS so nugget recovery is
#: unambiguous. ``template_id`` = index in this tuple.
TEMPLATES: tuple[str, ...] = (
    # 0: article with byline nuggets, wildcard boilerplate, list of paras
    """
    <html><body><wp-ignore/><article>
      <h1 wp-name='title'></h1>
      <p>By: <wp-nugget wp-name='author'/> On: <wp-nugget wp-name='date'/></p>
      <div class='content' wp-name='body'><wp-ignore/>
        <p wp-list wp-name='paras'><wp-nugget wp-name='t'/></p>
      <wp-ignore/></div>
    </article><wp-ignore/></body></html>
    """,
    # 1: tool-result card: attrs capture, optional, ignore-content
    """
    <div class='card'>
      <span class='tool' wp-name='tool_name'></span>
      <a wp-ignore-attrs wp-name-attrs='link' wp-name='label'></a>
      <em wp-optional wp-name='note'></em>
      <div class='debug' wp-ignore-content></div>
    </div>
    """,
    # 2: table-ish report: nested lists + leaf assert + recursive capture
    """
    <section>
      <h2>Report: <wp-nugget wp-name='report'/></h2>
      <ul><wp-ignore/>
        <li wp-list wp-name='rows'>Item: <wp-nugget wp-name='k'/> Val: <wp-nugget wp-name='v'/></li>
      </ul>
      <hr wp-leaf>
      <footer wp-name='raw' wp-recursive></footer>
    </section>
    """,
)

EPOCH = _dt.datetime(2026, 1, 1, 0, 0, 0)

_LOREM = (
    "Plain turn text with no markup at all just words about pipelines "
    "and schedulers and object stores and compaction strategies"
).split()

SIZES = {
    "tiny": dict(n_convs=10, mean_turns=10, n_files=2),
    "small": dict(n_convs=1000, mean_turns=20, n_files=8),
    "bench": dict(n_convs=150_000, mean_turns=20, n_files=256),
    # scale-curve presets (VERDICT r4 #6): same per-file density as
    # bench so block/batch sizing is comparable across the curve
    "bench3x": dict(n_convs=450_000, mean_turns=20, n_files=768),
    "bench10x": dict(n_convs=1_500_000, mean_turns=20, n_files=2560),
}


def _compiled() -> list[Template]:
    return [Template(t) for t in TEMPLATES]


def _mutate_html(html: str, rng: random.Random) -> str:
    """Break a rendered page so the template no longer matches."""
    choice = rng.randint(0, 2)
    if choice == 0 and "<h1" in html:
        return html.replace("<h1", "<h3", 1).replace("</h1>", "</h3>", 1)
    if choice == 1 and "class='card'" not in html:
        return html.replace("<article>", "<article><p>injected rogue</p>", 1)
    return "<div class='unrelated'><p>totally different page</p></div>"


ROW_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("role", pa.string()),
        ("text", pa.string()),
        ("tool", pa.string()),
        ("ts", pa.timestamp("us")),
        ("template_id", pa.int32()),
    ]
)

EXPECTED_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("template_id", pa.int32()),
        ("extracted_text", pa.string()),
        ("fields", pa.large_string()),
        ("error_kind", pa.string()),
    ]
)


def _generate_chunk(
    out_dir: str,
    chunk_idx: int,
    conv_lo: int,
    conv_hi: int,
    seed: int,
    html_frac: float,
    error_frac: float,
    hot_frac: float,
    hot_mult: int,
    mean_turns: int,
) -> dict:
    """Generate one file shard (convs [lo, hi)); rng seeded by
    (seed, chunk_idx) so output is deterministic regardless of how
    chunks are scheduled. Rows are shuffled WITHIN the shard so the
    ordering-restore stage always has real work."""
    import os

    rng = random.Random((seed << 20) ^ chunk_idx)
    templates = _compiled()
    rows: list[dict] = []
    expected: list[dict] = []
    for ci in range(conv_lo, conv_hi):
        conv_id = f"conv-{ci:08d}"
        n_turns = max(2, int(rng.expovariate(1.0 / mean_turns)) + 2)
        if rng.random() < hot_frac:
            n_turns *= hot_mult
        for ti in range(n_turns):
            role = ("user", "assistant", "tool")[ti % 3]
            tool = f"tool-{rng.randint(0, 5)}" if role == "tool" else ""
            ts = EPOCH + _dt.timedelta(seconds=ci * 3600 + ti * 7)
            if rng.random() < html_frac:
                tid = rng.randint(0, len(TEMPLATES) - 1)
                page = render(TEMPLATES[tid], rng)
                text = page.html
                if rng.random() < error_frac:
                    text = _mutate_html(text, rng)
                try:
                    m = templates[tid].match(text)
                    expected.append(
                        dict(
                            conv_id=conv_id, turn_idx=ti, template_id=tid,
                            extracted_text=m.extracted_text,
                            fields=json.dumps(m.fields, sort_keys=True),
                            error_kind="",
                        )
                    )
                except TemplateMismatch as e:
                    expected.append(
                        dict(
                            conv_id=conv_id, turn_idx=ti, template_id=tid,
                            extracted_text="", fields="{}", error_kind=e.kind,
                        )
                    )
            else:
                tid = -1
                text = " ".join(rng.choice(_LOREM) for _ in range(rng.randint(5, 30)))
                expected.append(
                    dict(
                        conv_id=conv_id, turn_idx=ti, template_id=-1,
                        extracted_text="", fields="{}", error_kind="not_html",
                    )
                )
            rows.append(
                dict(conv_id=conv_id, turn_idx=ti, role=role, text=text,
                     tool=tool, ts=ts, template_id=tid)
            )
    rng.shuffle(rows)  # deterministic within-shard shuffle
    pq.write_table(
        pa.Table.from_pylist(rows, schema=ROW_SCHEMA),
        f"{out_dir}/part-{chunk_idx:04d}.parquet",
    )
    pq.write_table(
        pa.Table.from_pylist(expected, schema=EXPECTED_SCHEMA),
        f"{out_dir}/.expected-{chunk_idx:04d}.parquet",
    )
    n_err = sum(1 for e in expected if e["error_kind"] not in ("", "not_html"))
    return dict(
        rows=len(rows),
        html_rows=sum(1 for r in rows if r["template_id"] >= 0),
        error_rows=n_err,
    )


def generate(
    out_dir: str,
    size: str = "tiny",
    seed: int = 42,
    html_frac: float = 0.5,
    error_frac: float = 0.08,
    hot_frac: float = 0.01,
    hot_mult: int = 100,
) -> dict:
    """Write ``part-*.parquet`` shards + ``expected.parquet`` under
    ``out_dir``. Deterministic in (size, seed) — chunk rngs are
    independent, so serial and Ray-parallel generation give identical
    bytes. Large presets fan out one Ray task per file shard when a Ray
    session exists (generation is itself a small data pipeline)."""
    import os

    cfg = SIZES[size]
    os.makedirs(out_dir, exist_ok=True)
    n_files = cfg["n_files"]
    n_convs = cfg["n_convs"]
    per = (n_convs + n_files - 1) // n_files
    args = [
        (out_dir, f, f * per, min((f + 1) * per, n_convs), seed,
         html_frac, error_frac, hot_frac, hot_mult, cfg["mean_turns"])
        for f in range(n_files)
        if f * per < n_convs
    ]

    import ray

    if ray.is_initialized() and n_convs >= 5000:
        task = ray.remote(num_cpus=1)(_generate_chunk)
        stats = ray.get([task.remote(*a) for a in args])
    else:
        stats = [_generate_chunk(*a) for a in args]

    # merge per-chunk expected files into one oracle twin
    parts = sorted(
        f for f in os.listdir(out_dir) if f.startswith(".expected-")
    )
    merged = pa.concat_tables(
        [pq.read_table(os.path.join(out_dir, p)) for p in parts]
    )
    pq.write_table(merged, os.path.join(out_dir, "expected.parquet"))
    for p in parts:
        os.remove(os.path.join(out_dir, p))

    total = dict(rows=0, html_rows=0, error_rows=0, files=len(args))
    for s in stats:
        for k in ("rows", "html_rows", "error_rows"):
            total[k] += s[k]
    return total


def ensure_generated(size: str, seed: int = 42, root: str = "/tmp/ws_transcripts") -> str:
    """Idempotent cached generation keyed by (size, seed)."""
    import os

    out = os.path.join(root, f"v4-{size}-seed{seed}")
    marker = os.path.join(out, "_COMPLETE")
    if not os.path.exists(marker):
        generate(out, size=size, seed=seed)
        with open(marker, "w") as fh:
            fh.write("ok")
    return out
