"""Scale-curve smoke beyond sf0.1 (VERDICT r4 #6).

Synthesizes deterministic 3x / 10x replicas of the sf0.1 tables the
expensive pipelines read (documents, embeddings) plus 3x / 10x
transcripts presets, runs the flagship and the five most expensive
query pipelines at each scale PIPELINE-ONLY (no oracles — the sf0.1
dedup_chain DuckDB oracle alone takes ~10 min; correctness is pinned
at sf0.001/0.01/0.1 by the driver gate), and prints one JSON line of
rows-vs-wall-time so BASELINE.md can carry the curve.

Replication is shape-preserving, not shape-inflating:
- documents: replica i>0 offsets doc_id by i*N (ids stay contiguous
  0..kN-1, which the graph pipelines' dense-degree vectors rely on)
  and suffixes every TEXT WORD with "~i" — within-replica shingle
  equality is preserved exactly (a consistent word map is a bijection
  on shingles) while cross-replica shingle intersections become EMPTY,
  so near-dup pair counts scale linearly in k instead of k^2 (naive
  byte-replication would make every cross-replica copy an exact dup).
- embeddings: replica i>0 gets FRESH seeded unit vectors (the base
  table's embeddings are random unit vectors with no cluster
  structure; fresh randoms preserve that distribution, identical
  copies would create k^2 semantic-dup pairs).

Owns its Ray session (the bench.py contract).
"""

from __future__ import annotations

import json
import os
import sys
import time

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

SRC = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
ROOT = "/tmp/ws_scale"
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
#: the five most expensive r4 pipelines that read only the replicated
#: tables (documents/embeddings) — assoc_rules from the r4 slow list
#: reads lineitem, which the replica set deliberately omits
QUERIES = ["dedup_chain", "kn_bigram", "ndcg_bm25", "pmi_bigrams",
           "jaccard_neighbors"]


def _suffix_words(texts: list, i: int) -> list:
    suf = f"~{i}"
    return [
        None if t is None else " ".join(w + suf for w in t.split())
        for t in texts
    ]


def synth_dir(k: int) -> str:
    """Deterministic k-fold replica of SRC's documents + embeddings."""
    out = os.path.join(ROOT, f"x{k}")
    marker = os.path.join(out, "_COMPLETE")
    if os.path.exists(marker):
        return out
    os.makedirs(out, exist_ok=True)

    docs = pq.read_table(os.path.join(SRC, "documents.parquet"))
    n = docs.num_rows
    parts = [docs]
    for i in range(1, k):
        parts.append(
            pa.table(
                {
                    "doc_id": pa.array(
                        docs.column("doc_id").to_numpy() + i * n, pa.int64()
                    ),
                    "text": pa.array(
                        _suffix_words(docs.column("text").to_pylist(), i),
                        pa.string(),
                    ),
                    "lang": docs.column("lang"),
                    "source": docs.column("source"),
                    "n_chars": docs.column("n_chars"),
                }
            )
        )
    pq.write_table(pa.concat_tables(parts), os.path.join(out, "documents.parquet"))

    emb = pq.read_table(os.path.join(SRC, "embeddings.parquet"))
    m = emb.num_rows
    dim = len(emb.column("embedding")[0])
    eparts = [emb]
    for i in range(1, k):
        rng = np.random.RandomState(1000 + i)
        v = rng.normal(size=(m, dim)).astype(np.float32)
        v /= np.linalg.norm(v, axis=1, keepdims=True)
        eparts.append(
            pa.table(
                {
                    "vec_id": pa.array(
                        emb.column("vec_id").to_numpy() + i * m, pa.int64()
                    ),
                    "embedding": pa.array(
                        list(v), pa.list_(pa.float32())
                    ),
                    "label": emb.column("label"),
                }
            )
        )
    pq.write_table(
        pa.concat_tables(eparts).cast(emb.schema),
        os.path.join(out, "embeddings.parquet"),
    )
    with open(marker, "w") as fh:
        fh.write("ok")
    return out


def main() -> None:
    import ray

    ray.init(address="local", num_cpus=NUM_CPUS, include_dashboard=False,
             ignore_reinit_error=True, logging_level="ERROR",
             log_to_driver=False)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from weakscraper_ray.pipelines import registry
    from weakscraper_ray.pipelines import run_flagship
    from weakscraper_ray.transcripts import ensure_generated

    out: dict = {"num_cpus": NUM_CPUS, "scales": {}}

    # flagship over 1x/3x/10x transcripts (extract-only path — the
    # no-exchange control isolates compute shape from shuffle noise;
    # plus the mandated shuffle path for the headline shape).
    # GRAFT_CURVE_SKIP_FLAGSHIP=1 reruns only the query curves.
    sizes = () if os.environ.get(
        "GRAFT_CURVE_SKIP_FLAGSHIP"
    ) else ("bench", "bench3x", "bench10x")
    for size in sizes:
        src = ensure_generated(size)
        t0 = time.perf_counter()
        rows = run_flagship(src, restore_ordering=False).count()
        dt_extract = time.perf_counter() - t0
        t0 = time.perf_counter()
        run_flagship(src).count()
        dt_shuf = time.perf_counter() - t0
        out["scales"].setdefault(size, {})["flagship"] = {
            "rows": rows,
            "extract_only_sec": round(dt_extract, 2),
            "shuffle_sec": round(dt_shuf, 2),
            "turns_per_sec": round(rows / dt_extract, 1),
        }
        print(f"# flagship {size}: {rows} rows "
              f"extract={dt_extract:.2f}s shuf={dt_shuf:.2f}s", file=sys.stderr)

    # expensive query pipelines over 1x/3x/10x documents+embeddings
    for k, sf_dir in ((1, SRC), (3, synth_dir(3)), (10, synth_dir(10))):
        n_docs = pq.ParquetFile(
            os.path.join(sf_dir, "documents.parquet")
        ).metadata.num_rows
        tag = f"docs_x{k}"
        out["scales"][tag] = {"n_docs": n_docs}
        for name in QUERIES:
            t0 = time.perf_counter()
            res = registry.queries()[name](sf_dir)
            if hasattr(res, "count"):
                res.count()
            dt = time.perf_counter() - t0
            out["scales"][tag][name] = round(dt, 2)
            print(f"# {tag} {name}: {dt:.2f}s", file=sys.stderr)

    print(json.dumps(out))
    ray.shutdown()


if __name__ == "__main__":
    main()
