"""Benchmark harness (driver contract + SURVEY.md §6 protocol).

Plain run: one JSON line
    {"metric": "...", "value": <headline sec>, "unit": "sec",
     "queries": {...}, "sf": ..., "num_cpus": N, "turns_per_sec": ...,
     "query_retries": {name: {first, retry}},   # slow-tail second samples
     "queries_isolated": {name: sec},           # fresh-process ground truth
     "gates": {name: {gate: {path: {n, max_size}}}}}  # fallback decisions

--isolated a,b,c: fresh-process ground-truth timings for the named
queries (spawned automatically by the plain run for the slowest
GRAFT_ISOLATE_TOP entries; in-list numbers carry stochastic inflation
and driver-memo hits that this pass is free of).

--scaling: runs the headline pipeline in fresh subprocesses at 8 and
32 CPUs on the SAME input (page cache warmed) and reports both
throughputs + efficiency = T_lo/(T_hi * (hi/lo)); this is the
sandbox stand-in for the N vs 4N two-cluster-size criterion
(BASELINE.md; no real multi-node cluster is available here).

Env: GRAFT_SF_DIR (default /root/testdata/sf0.1), RAY_GRAFT_CPUS
(default 32). bench.py OWNS its Ray session (init+shutdown); library
code never does.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


SF_DIR = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
NUM_CPUS = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
BENCH_SIZE = os.environ.get("GRAFT_BENCH_SIZE", "bench")  # transcripts preset
#: skip the per-query timings (scaling mode only needs the headline)
HEADLINE_ONLY = os.environ.get("GRAFT_HEADLINE_ONLY", "") == "1"
#: dump ds.stats() of the headline run to stderr for stage-level tuning
DUMP_STATS = os.environ.get("GRAFT_DUMP_STATS", "") == "1"


def _headline(num_cpus: int) -> tuple[float, float, int]:
    """Flagship extraction pipeline over the bench transcripts table:
    read → extract tasks → ordering restore → count. Times TWO paths:
    the mandated salted-hash shuffle (headline) and extract-only (no
    ordering restore at all). The extract-only run is the CONTROL for
    the scaling criterion: it has no exchange, so its 8→32 efficiency
    is the pure hardware ceiling of the CPU-bound parse+match on this
    box; pipeline efficiency ≈ control efficiency means the exchange
    adds no scaling penalty (VERDICT r2 #1a). Returns (shuffle_sec,
    extract_only_sec, rows)."""
    from weakscraper_ray.pipelines import run_flagship
    from weakscraper_ray.transcripts import ensure_generated

    input_dir = ensure_generated(BENCH_SIZE)  # cached across runs
    # untimed warm-up on the tiny table: pays worker-process spawn +
    # import cost once so the timing measures compute + shuffle, not
    # cold-start (a real long-running job amortizes this entirely)
    run_flagship(ensure_generated("tiny")).count()
    # best-of-N: the shared box shows ±20-60% transient load spikes
    # (hypervisor neighbors); a single-shot headline regularly lands on
    # one. Interleaved variants per rep, best per variant.
    reps = int(os.environ.get("GRAFT_HEADLINE_REPS", "2"))
    dt = dt_extract = float("inf")
    rows = 0
    for rep in range(reps):
        t0 = time.perf_counter()
        ds = run_flagship(input_dir)
        rows = ds.count()
        dt_i = time.perf_counter() - t0
        if DUMP_STATS and rep == 0:
            print(ds.stats(), file=sys.stderr)
        dt = min(dt, dt_i)
        t0 = time.perf_counter()
        run_flagship(input_dir, restore_ordering=False).count()
        dt_extract = min(dt_extract, time.perf_counter() - t0)
    return dt, dt_extract, rows


def _run_queries(sf_dir: str) -> tuple[dict[str, float], dict, dict]:
    """Time the representative operator families over the sf tables.
    Returns (timings, retries, gates): ``retries`` records BOTH samples
    for every entry the slow-tail pass re-timed (ADVICE r4: min-of-2
    silently biased exactly the numbers a reader inspects — now the
    JSON marks which entries got a second sample and shows both), and
    ``gates`` records each query's gated-fallback decisions (which
    broadcast/exchange regime ran, at what measured set size —
    VERDICT r4 #7)."""
    from weakscraper_ray.functions import gates as G
    from weakscraper_ray.pipelines import relational as R

    names = [
        "pricing_summary", "broadcast_join", "dedup_exact",
        "dedup_minhash", "dedup_clusters", "embed_knn",
        "knn_cosine", "quality_score", "token_count", "training_prep",
        "decontaminate", "shuffle_train", "pack_conversations",
        "pii_scrub", "word_diversity", "inverted_index", "dedup_edit",
        "embedding_pca", "regional_revenue", "curation_prep",
        "minhash_against_index", "kmeans_clusters", "salted_join",
        "triangles", "gap_islands", "substring_dedup", "interval_coverage",
        "peak_concurrency", "token_entropy", "table_checksum",
        "wau_rolling", "reconcile_orders", "event_path", "pmi_bigrams",
        "itemset_pairs", "upsert_snapshot", "bpe_top_pairs",
        "zorder_layout", "ivm_priority_totals", "zipf_slope", "ab_test",
        "late_events", "right_join", "mlm_mask", "rolling_corr",
        "psi_drift", "cms_estimate", "benford_digits", "winsorize_value",
        "bfs_hops", "jaccard_neighbors", "dedup_conv_structure",
        "fertility_by_lang", "qa_pairs", "tool_usage", "log2_histogram",
        "kcenter_select", "bpe_encode", "pq_topk", "attribution",
        "event_dedup", "conv_filter", "dialog_grammar", "salt_plan",
        "median_select", "ivm_join_delta", "equidepth_bins",
        "mannwhitney_u", "clustering_coeff", "phash_neardup",
        "target_encode_loo", "binary_source", "mad_outliers",
        "weighted_median", "chisq_independence", "kcore", "mst_forest",
        "embedding_rp", "label_knn_agreement", "ssjoin_prefix",
        "kanon_audit", "scd2_intervals", "transition_probs", "ewma_daily",
        "bootstrap_ci", "mutual_info", "survival_km", "emd_drift",
        "isotonic_daily", "llr_bigrams", "hits", "best_split",
        "rrf_fusion", "stupid_backoff", "skipgram_pairs",
        "dp_counts", "holt_linear", "rendezvous_assign",
        "hll_exact", "bloom_semijoin", "sssp_weighted", "widest_path",
        "walk_counts", "ppr_seeded", "decile_census", "nb_classify",
        "gini_stump", "edit1_join", "zorder_cells", "interval_overlap",
        "cohort_retention", "recency_score",
        "gini_concentration", "theil_index", "hhi_concentration",
        "mis_luby", "greedy_matching", "hyperball_reach",
        "stream_join_60s", "sax_daily", "theta_join_cdf", "kmv_intersect",
        "k_truss", "sprt_test", "auc_nb", "calibration_bins", "ndcg_bm25",
        "seed_select", "gram_matrix", "hill_tail", "markov_entropy",
        "dedup_containment", "semdedup", "kn_bigram", "dedup_chain",
        "feature_hash", "seq_triples", "dtw_distance", "ols_multi",
        "modularity_score", "jenks_breaks", "lexicon_scan", "self_bleu",
        "kendall_tau", "cohen_kappa", "yule_k", "spearman_rho",
        "mann_kendall", "assortativity", "rich_club", "ams_f2",
        "anova_f", "kruskal_wallis", "dft_power", "brier_score",
        "hilbert_layout", "dbscan_clusters", "levene_test", "chi2_terms", "avg_precision",
        "best_f1", "corr_matrix", "runs_test", "perm_entropy", "quantile_map",
        "durbin_watson", "cochran_armitage",
        "full_outer_join", "assoc_rules", "matrix_profile", "mutual_knn",
        "haar_energy", "burst_detect", "cluster_medoids", "silhouette_score",
        "textrank_terms", "friedman_test", "page_trend", "tukey_q",
        "mood_median", "mcnemar_test", "cox_stuart", "jonckheere_trend",
        "bartlett_test", "wilcoxon_signed", "pettitt_test", "ljung_box",
        "cramer_vonmises", "hoeffding_d", "cochran_q", "hodges_lehmann",
        "mood_scale", "hurst_rs", "sample_entropy", "cronbach_alpha",
        "ldiv_audit", "chao1_richness", "seasonal_decompose",
        "gumbel_moments", "moran_i", "logrank_test", "forecast_eval",
        "xcorr_daily", "effective_dim", "mmd_embeddings",
        "cuped_adjust", "mantel_haenszel", "fleiss_kappa",
        "good_turing", "heaps_law", "kendall_w", "ansari_bradley",
        "turn_latency", "response_ratio", "conv_truncate",
        "promo_revenue", "returned_revenue", "daily_churn", "temperature_mix",
        "extract_agreement", "readability", "turn_dedup",
        "gopher_repetition", "turn_echo", "tool_bigrams",
        "ngram_novelty", "dedup_keep_best",
    ]
    # untimed warm-up (VERDICT r3 #6): the first timed query otherwise
    # absorbs worker-pool spawn + per-worker module import for the
    # query path (the flagship warm-up covers only the extract workers;
    # r3's pricing_summary "regression" was exactly this absorption)
    warm = R.QUERIES["pricing_summary"](sf_dir)
    if hasattr(warm, "count"):
        warm.count()
    del warm

    # GRAFT_QUERY_SUBSET=a,b,c restricts the timed list (smoke runs /
    # targeted re-measurement); unset = the full representative list
    subset = os.environ.get("GRAFT_QUERY_SUBSET", "")
    if subset:
        want = set(subset.split(","))
        names = [n for n in names if n in want]

    out: dict[str, float] = {}
    gates: dict[str, dict] = {}
    G.drain()  # discard warm-up events
    for name in names:
        t0 = time.perf_counter()
        res = R.QUERIES[name](sf_dir)
        # consume: aggregates are tiny; count() drives full execution —
        # except after row-preserving ops (random_shuffle) where Ray
        # answers count() from metadata; materialize those first
        if hasattr(res, "count"):
            if name == "shuffle_train":
                res = res.materialize()
            res.count()
        out[name] = round(time.perf_counter() - t0, 3)
        ev = G.drain()
        if ev:
            gates[name] = G.summarize(ev)
        # measurement hygiene: drop the result so the object store can
        # reclaim blocks before the next timing starts.  NOTE: in-list
        # timings still carry 2-3× stochastic inflation vs isolated
        # runs (e.g. rendezvous_assign 15.4 s in-list vs 3.3 s in a
        # fresh session) — A/B with and without this drain left the
        # 131-query total unchanged (427 s vs 436 s) while the slow
        # set MOVED between runs, so the residual is shared-box
        # neighbor load, not cross-query retention; isolated fresh-
        # session runs are the per-query ground truth (BASELINE.md).
        del res
        import gc

        gc.collect()
        time.sleep(0.2)
    # de-noise the slow tail: in-list timings carry 2-3× stochastic
    # inflation from hypervisor-neighbor load bursts (BASELINE.md r3;
    # r4 spot-checks: edit1_join 25.5 s in-list vs 4.2 s isolated).
    # Re-time anything over the threshold once and keep the min — the
    # retry hits only the handful of entries the inflation lands on,
    # so the added wall time is bounded while exactly the numbers a
    # reader inspects get a second sample.
    retry_floor = float(os.environ.get("GRAFT_RETRY_FLOOR_SEC", "3.0"))
    retries: dict[str, dict] = {}
    for name in [n for n, v in out.items() if v > retry_floor]:
        t0 = time.perf_counter()
        res = R.QUERIES[name](sf_dir)
        if hasattr(res, "count"):
            if name == "shuffle_train":
                res = res.materialize()
            res.count()
        G.drain()  # retry re-records the same gate decisions
        second = round(time.perf_counter() - t0, 3)
        retries[name] = {"first": out[name], "retry": second}
        out[name] = min(out[name], second)
        del res
        import gc

        gc.collect()
        time.sleep(0.2)
    return out, retries, gates


def _consume(res, name: str) -> None:
    if hasattr(res, "count"):
        if name == "shuffle_train":
            res = res.materialize()
        res.count()


def isolated_mode(names: list[str]) -> None:
    """Fresh-process ground-truth timings for the named queries
    (VERDICT r4 #4: in-list numbers carry 2-3× stochastic inflation
    AND driver-side memo hits — e.g. the per-sf_dir value census —
    that make an in-session re-time unrepresentative in both
    directions; a fresh driver + fresh Ray session is the number
    BASELINE.md calls per-query ground truth). Prints one JSON dict
    {name: sec}."""
    import ray

    ray.init(
        address="local", num_cpus=NUM_CPUS, include_dashboard=False,
        ignore_reinit_error=True, logging_level="ERROR",
        log_to_driver=False,
    )
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False
    from weakscraper_ray.pipelines import relational as R

    warm = R.QUERIES["pricing_summary"](SF_DIR)
    _consume(warm, "pricing_summary")
    out = {}
    for name in names:
        t0 = time.perf_counter()
        _consume(R.QUERIES[name](SF_DIR), name)
        out[name] = round(time.perf_counter() - t0, 3)
    print(json.dumps(out))
    ray.shutdown()


def _isolated_retime(queries: dict[str, float]) -> dict[str, float]:
    """Re-time the slowest entries in a fresh subprocess (own driver
    process + own Ray session). Returns {} on any failure — the
    isolated numbers are diagnostic enrichment, never a gate."""
    top = int(os.environ.get("GRAFT_ISOLATE_TOP", "10"))
    if top <= 0:
        return {}
    slowest = sorted(queries, key=queries.get, reverse=True)[:top]
    if not slowest:
        return {}
    try:
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--isolated",
             ",".join(slowest)],
            capture_output=True, text=True, check=True, timeout=900,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        return json.loads(out.strip().splitlines()[-1])
    except Exception:
        return {}


def main() -> None:
    import ray

    ray.init(
        address="local",
        num_cpus=NUM_CPUS,
        include_dashboard=False,
        ignore_reinit_error=True,
        logging_level="ERROR",
        # worker prints otherwise leak onto STDOUT and corrupt the
        # one-line JSON contract the driver parses (seen in BENCH_r02)
        log_to_driver=False,
    )
    from ray.data import DataContext

    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False

    # warm page cache + generator cache so we measure compute, not cold IO
    from weakscraper_ray.transcripts import ensure_generated

    ensure_generated(BENCH_SIZE)

    headline_sec, extract_sec, rows = _headline(NUM_CPUS)
    if HEADLINE_ONLY:
        queries, retries, gates = {}, {}, {}
    else:
        queries, retries, gates = _run_queries(SF_DIR)
    # fresh-process ground truth for the slow tail AFTER this session
    # releases its CPUs/object store (the subprocess owns its own Ray)
    ray.shutdown()
    isolated = {} if HEADLINE_ONLY else _isolated_retime(queries)
    # the headline per-query numbers keep the BEST measurement (same
    # min-of-samples rule as the retry pass, now including the
    # fresh-process sample): in-list inflation on this shared box
    # otherwise reads as a regression that isolated re-runs refute
    # (VERDICT r4 #4); provenance stays visible — queries_isolated
    # lists the isolated samples, query_retries both in-list samples
    for n, v in isolated.items():
        if n in queries and v < queries[n]:
            queries[n] = v

    print(
        json.dumps(
            {
                "metric": "extraction_pipeline_sec",
                "value": round(headline_sec, 3),
                "unit": "sec",
                "queries": queries,
                "sf": SF_DIR,
                "num_cpus": NUM_CPUS,
                "rows": rows,
                "turns_per_sec": round(rows / headline_sec, 1),
                "extract_only_sec": round(extract_sec, 3),
                "extract_only_turns_per_sec": round(rows / extract_sec, 1),
                # both samples for every slow-tail re-timed entry
                # (ADVICE r4: min-of-2 was silent); queries[] keeps min
                "query_retries": retries,
                # fresh-process ground truth for the slowest entries
                # (VERDICT r4 #4: in-list inflation implied phantom
                # regressions the driver artifact couldn't refute)
                "queries_isolated": isolated,
                # gated-fallback decisions per query (VERDICT r4 #7)
                "gates": gates,
            }
        )
    )


def _alu_work(n: int) -> int:
    """Cache-resident ALU-bound unit: sha256 chaining over 64 bytes —
    zero memory traffic, zero Ray, zero IPC beyond pool dispatch."""
    import hashlib

    h = b"x" * 64
    for _ in range(n):
        h = hashlib.sha256(h).digest()
    return h[0]


def hw_ceiling(lo: int, hi: int, trials: int = 3) -> dict:
    """The box's PURE-HARDWARE lo→hi scaling ceiling, measured with
    plain multiprocessing and an ALU-bound kernel (no Ray, no memory
    bandwidth, no shuffle). On shared/turbo hardware this lands well
    below 1.0 — fewer active cores boost to higher clocks and see
    less hypervisor-neighbor contention — so it upper-bounds what ANY
    pipeline (however perfectly parallel) can score on this box. The
    scaling criterion's ≥0.8 bar should be read relative to this
    ceiling: pipeline_eff / alu_eff ≈ 1 means the engine adds no
    scaling penalty of its own."""
    import multiprocessing as mp

    reps = int(os.environ.get("GRAFT_ALU_REPS", "120000"))

    def run(nproc: int) -> float:
        with mp.Pool(nproc) as p:
            t0 = time.perf_counter()
            p.map(_alu_work, [reps] * nproc * 4)  # 4 tasks per proc
            dt = time.perf_counter() - t0
        return nproc * 4 * reps / dt  # hashes/sec

    lo_tp, hi_tp, ratios = [], [], []
    for _ in range(trials):  # interleaved, same protocol as the rest
        a = run(lo)
        b = run(hi)
        lo_tp.append(a)
        hi_tp.append(b)
        ratios.append((b / a) / (hi / lo))
    ratios.sort()
    return {
        "alu_hashes_per_sec_lo": round(max(lo_tp), 0),
        "alu_hashes_per_sec_hi": round(max(hi_tp), 0),
        "alu_ceiling_efficiency": round((max(hi_tp) / max(lo_tp)) / (hi / lo), 3),
        "alu_ceiling_efficiency_median": round(ratios[len(ratios) // 2], 3),
    }


def scaling() -> None:
    lo = int(os.environ.get("GRAFT_SCALE_LO", "8"))
    hi = int(os.environ.get("GRAFT_SCALE_HI", "32"))

    def run_once(ncpu: int) -> dict:
        # reps=1: the scaling protocol's own interleaved best-of-N
        # across rounds is the noise control; per-subprocess reps would
        # double wall time for no extra signal
        env = dict(os.environ, RAY_GRAFT_CPUS=str(ncpu),
                   GRAFT_HEADLINE_ONLY="1", GRAFT_HEADLINE_REPS="1")
        out = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
            cwd=os.path.dirname(os.path.abspath(__file__)),
        ).stdout
        time.sleep(5)  # let the previous Ray session's teardown settle
        return json.loads(out.strip().splitlines()[-1])

    # Interleaved best-of-3: single-box timings swing ±15-20% with
    # background load, and consecutive same-size runs share that noise
    # — alternating sizes decorrelates it before taking each size's
    # best (measurement protocol; both sizes run identical code).
    rounds = int(os.environ.get("GRAFT_SCALE_ROUNDS", "3"))
    lo_runs, hi_runs = [], []
    for _ in range(rounds):
        lo_runs.append(run_once(lo))
        hi_runs.append(run_once(hi))

    def best(runs: list[dict], key: str) -> dict:
        return min(runs, key=lambda r: r[key])

    def median_eff(key: str) -> float:
        # per-round paired ratio, then median: robust to one noisy run
        # on either side (ratio-of-bests is biased when noise is
        # asymmetric between the two sizes)
        ratios = sorted(
            (l[key] / h[key]) / (hi / lo) for l, h in zip(lo_runs, hi_runs)
        )
        return ratios[len(ratios) // 2]

    r_lo, r_hi = best(lo_runs, "value"), best(hi_runs, "value")
    t_lo, t_hi = r_lo["value"], r_hi["value"]
    eff = (t_lo / t_hi) / (hi / lo)
    x_lo = best(lo_runs, "extract_only_sec")["extract_only_sec"]
    x_hi = best(hi_runs, "extract_only_sec")["extract_only_sec"]
    eff_extract = (x_lo / x_hi) / (hi / lo)
    print(
        json.dumps(
            {
                "sec_8": t_lo,
                "sec_32": t_hi,
                "turns_per_sec_8": r_lo["turns_per_sec"],
                "turns_per_sec_32": r_hi["turns_per_sec"],
                "scaling_efficiency": round(eff, 3),
                "scaling_efficiency_median": round(median_eff("value"), 3),
                # CONTROL: no-exchange extract-only efficiency = the
                # hardware ceiling of CPU-bound python on this box; the
                # exchange is exonerated when pipeline eff ≈ this
                "extract_only_sec_8": x_lo,
                "extract_only_sec_32": x_hi,
                "extract_only_scaling_efficiency": round(eff_extract, 3),
                "extract_only_scaling_efficiency_median": round(
                    median_eff("extract_only_sec"), 3
                ),
                "exchange_efficiency_penalty": round(eff_extract - eff, 3),
                "rows": r_hi["rows"],
                # HARDWARE CEILING: plain-multiprocessing ALU-bound
                # control (no Ray, no memory traffic) — the max ANY
                # workload can score at lo→hi on this box
                **hw_ceiling(lo, hi),
            }
        )
    )


if __name__ == "__main__":
    if "--scaling" in sys.argv:
        scaling()
    elif "--isolated" in sys.argv:
        isolated_mode(sys.argv[sys.argv.index("--isolated") + 1].split(","))
    else:
        main()
