"""The flagship extraction pipeline (SURVEY.md §3.4).

    read_transcripts(path, fmt)               [IO tasks, column-pruned; one
                                               reader per sources.formats entry]
      (→ prune_committed)                     [sink resume: drop committed shards]
      → map_batches(Extractor(...), tasks)    [C1..C4, zero-copy Arrow]
      → restore_order: materialize() barrier,
        then sort by (conv_id, turn_idx)      [R3/R4 range-partitioned sort]
      or
      → write_partitioned(fmt): materialize()
        barrier, then groupby(shard), one
        atomic part + manifest per shard      [S3 checkpointed sink]

Either path has one wide exchange, behind one barrier: extraction runs
on every CPU before the exchange starts (``stages/ordering.py``).

Nothing here calls ``ray.init`` — the driver/bench/tests own sessions.
"""

from __future__ import annotations

from typing import Callable

import ray
import ray.data

from ..stages.extract import Extractor
from ..stages.ordering import restore_order
from ..transcripts import TEMPLATES, ensure_generated

#: mandated input schema (BASELINE.json input_hint) + routing column
TRANSCRIPT_COLUMNS = ["conv_id", "turn_idx", "role", "text", "tool", "ts"]


def default_templates() -> dict[int, str]:
    return dict(enumerate(TEMPLATES))


def read_transcripts(path: str, fmt: str = "parquet", with_route: bool = True,
                     include_paths: bool = False):
    """Read a transcripts table stored in any ``sources.formats.FORMATS``
    format, column-pruned to ``TRANSCRIPT_COLUMNS`` (+ ``template_id``
    with ``with_route``).

    A directory is read as its ``part-*.<suffix>`` shards when it has
    any: a generated table directory also holds the ``.expected-*``
    oracle twins, which are not data. A non-parquet directory without
    such shards is read as its ``*.<suffix>`` files.

    Parquet is read by ``ray.data.read_parquet``. Every other format is
    read by ``read_binary_files`` (one file per row) and one
    ``map_batches(batch_size=1)`` that decodes the file with the
    format's ``read`` and casts it to ``transcripts.ROW_SCHEMA``, so all
    formats yield the same table.

    ``include_paths=True`` adds each row's source-file ``path`` column
    so the checkpointed sink can record per-partition input lineage in
    its manifest.
    """
    import glob
    import os

    import pyarrow as pa

    from ..sources.formats import format_of, to_row_schema

    suffix, read, _ = format_of(fmt)
    is_dir = os.path.isdir(path)
    shards = sorted(glob.glob(os.path.join(path, f"part-*.{suffix}"))) if is_dir else []
    cols = list(TRANSCRIPT_COLUMNS)
    if with_route:
        cols.append("template_id")
    if fmt == "parquet":
        import pyarrow.dataset as pads

        paths = shards or path
        schema_names = pads.dataset(paths).schema.names
        cols = [c for c in cols if c in schema_names]
        return ray.data.read_parquet(paths, columns=cols, include_paths=include_paths)

    def _decode(batch: pa.Table) -> pa.Table:
        t = to_row_schema(read(batch.column("bytes")[0].as_buffer(), cols))
        if "path" in batch.column_names:
            t = t.append_column(
                "path", pa.array([batch.column("path")[0].as_py()] * t.num_rows)
            )
        return t

    # one block per file, so the files are listed here: left to itself
    # Ray pads the read to more blocks than files, and each empty one
    # decodes to a schema-less block
    if is_dir:
        paths = shards or sorted(glob.glob(os.path.join(path, f"*.{suffix}")))
    else:
        paths = [path]
    return ray.data.read_binary_files(
        paths, include_paths=include_paths, override_num_blocks=len(paths),
    ).map_batches(_decode, batch_format="pyarrow", batch_size=1)


def extraction_pipeline(
    ds,
    templates: dict[int, str] | None = None,
    functions: dict[str, Callable] | None = None,
    batch_size: int = 1024,
    restore_ordering: bool = True,
    keep_text: bool = False,
    heuristic_fallback: bool = False,
    route_column: str | None = "template_id",
    nested: bool = False,
):
    """Transcripts Dataset → extracted Dataset.

    With ``restore_ordering=True`` (the default) the extraction runs
    when this is called: ``restore_order`` materializes the extract
    output so it finishes with every CPU, and the returned Dataset is
    the lazy total sort over it. With ``restore_ordering=False`` the
    result is fully lazy.

    The ``Extractor`` is passed as an instance, so Ray Data runs it as
    stateless tasks: each task unpickles a fresh copy and compiles only
    the templates its rows route to. Ray Data's task path retries a
    lost worker (``max_retries=-1``), so worker death is survived
    without actor restarts.

    ``route_column=None`` disables template routing entirely (every row
    tries all templates, first-match-wins) — required when externally
    supplied templates don't share the input's template-id space.
    ``nested=True`` switches the ``fields`` JSON to the reconstructed
    reference result shape (captures nested by wp-name hierarchy).
    """
    if templates is None:
        templates = default_templates()
    extractor = Extractor(
        templates=templates, functions=functions, keep_text=keep_text,
        heuristic_fallback=heuristic_fallback, route_column=route_column,
        nested=nested,
    )
    out = ds.map_batches(extractor, batch_format="pyarrow", batch_size=batch_size)
    if restore_ordering:
        out = restore_order(out)
    return out


def run_flagship(
    input_dir: str | None = None,
    size: str = "tiny",
    **kwargs,
):
    """Generate-or-reuse a transcripts table, run the full pipeline."""
    if input_dir is None:
        input_dir = ensure_generated(size)
    ds = read_transcripts(input_dir)
    return extraction_pipeline(ds, **kwargs)
