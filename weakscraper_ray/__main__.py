"""CLI entry point: run the extraction pipeline over a transcripts
directory in any ``sources.formats.FORMATS`` format.

    python -m weakscraper_ray extract --input DIR --out DIR \
        [--format parquet|jsonl|csv|orc] [--out-format parquet|jsonl|csv|orc] \
        [--templates-dir DIR] [--learn] \
        [--heuristic] [--no-resume] [--num-cpus N] [--shards N]

Owns its Ray session (guarded init — the library never calls
ray.init); writes the checkpointed resumable layout and prints the
manifest roll-up as JSON.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys

from .sources.formats import FORMATS


@contextlib.contextmanager
def _ray_session(num_cpus: int | None):
    """A local Ray session for one command (guarded init; the library
    never calls ray.init), shut down when the command ends."""
    import ray

    if not ray.is_initialized():
        ray.init(address="local", num_cpus=num_cpus,
                 include_dashboard=False, ignore_reinit_error=True,
                 logging_level="ERROR")
    try:
        yield
    finally:
        ray.shutdown()


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(prog="weakscraper_ray")
    sub = ap.add_subparsers(dest="cmd", required=True)

    ex = sub.add_parser("extract", help="template extraction over a transcripts table")
    ex.add_argument("--input", required=True, help="transcripts dir/file")
    ex.add_argument("--format", choices=sorted(FORMATS),
                    default="parquet",
                    help="input format (all normalize to one schema)")
    ex.add_argument("--out", required=True, help="checkpointed output dir")
    ex.add_argument("--out-format", choices=sorted(FORMATS),
                    default="parquet",
                    help="partition file format (manifests/resume identical)")
    ex.add_argument("--templates-dir", help="dir of <name>.html wp-* templates")
    ex.add_argument("--learn", action="store_true",
                    help="learn skeleton templates from the input instead")
    ex.add_argument("--heuristic", action="store_true",
                    help="text-density fallback for template-less pages")
    ex.add_argument("--nested", action="store_true",
                    help="reference-shaped nested result dicts in the fields column")
    ex.add_argument("--no-lineage", action="store_true",
                    help="skip per-partition input-file lineage in manifests")
    ex.add_argument("--num-cpus", type=int, default=None)
    ex.add_argument("--shards", type=int, default=64)
    ex.add_argument("--no-resume", action="store_true")
    ex.add_argument("--batch-size", type=int, default=1024)

    ck = sub.add_parser(
        "checksum",
        help="order-independent audit fingerprint of a parquet dir "
             "(same rows → same value regardless of partitioning/order)",
    )
    ck.add_argument("--input", required=True, help="parquet file/dir/glob")
    ck.add_argument("--columns", required=True,
                    help="comma-separated canonical key columns")
    ck.add_argument("--num-cpus", type=int, default=None)

    q = sub.add_parser("query", help="run a named pipeline from the query registry")
    q.add_argument("name", nargs="?", help="query name (omit to list all)")
    q.add_argument("--sf-dir", default="/root/testdata/sf0.01")
    q.add_argument("--limit", type=int, default=20, help="rows to print")
    q.add_argument("--num-cpus", type=int, default=None)

    args = ap.parse_args(argv)

    if args.cmd == "checksum":
        import ray.data

        with _ray_session(args.num_cpus):
            from .sources.checkpoint import checksum_dataset

            cols = [c.strip() for c in args.columns.split(",") if c.strip()]
            ds = ray.data.read_parquet(args.input, columns=cols)
            print(json.dumps(checksum_dataset(ds, cols)))
            return 0

    if args.cmd == "query":
        from .pipelines import registry

        qs = registry.queries()
        if not args.name:
            oracled = set(registry.oracle_sql())
            for n in sorted(qs):
                print(f"{n:28s} {'oracle' if n in oracled else 'rows-only'}")
            return 0
        with _ray_session(args.num_cpus):
            res = qs[args.name](args.sf_dir)
            df = res.to_pandas() if hasattr(res, "to_pandas") else res
            print(df.head(args.limit).to_string(index=False))
            print(f"[{len(df)} rows]")
            return 0

    with _ray_session(args.num_cpus):
        from .pipelines.extraction import extraction_pipeline, read_transcripts
        from .sources import metrics_rollup, write_partitioned

        def _read_input():
            return read_transcripts(args.input, fmt=args.format,
                                    include_paths=not args.no_lineage)

        ds = _read_input()
        if not args.no_resume:
            # prune committed shards BEFORE extraction: a resume skips
            # the expensive parse+match work, not just the writes
            from .sources.checkpoint import prune_committed

            ds = prune_committed(ds, args.out, args.shards)
        templates = None
        route_column: str | None = "template_id"
        if args.templates_dir:
            from .state import load_template_dir

            named = load_template_dir(args.templates_dir)
            templates = dict(enumerate(named[k] for k in sorted(named)))
            # external templates don't share the input's template-id
            # space: disable routing so every row gets first-match-wins
            # across all supplied templates (ADVICE r1)
            route_column = None
        elif args.learn:
            from .pipelines.learning import learn_templates

            templates = learn_templates(_read_input())

        out = extraction_pipeline(
            ds,
            templates=templates,
            batch_size=args.batch_size,
            restore_ordering=False,  # the sink's shard groupby sorts per partition
            heuristic_fallback=args.heuristic,
            route_column=route_column,
            nested=args.nested,
        )
        write_partitioned(
            out, args.out, n_shards=args.shards, resume=not args.no_resume,
            has_shard=not args.no_resume, fmt=args.out_format,
        )
        print(json.dumps(metrics_rollup(args.out)))
        return 0


if __name__ == "__main__":
    sys.exit(main())
