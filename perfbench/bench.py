"""Benchmark driver process: sets up Ray, runs one workload's passes,
checks every pass and prints the report. ``perfbench/run.py`` starts it
in its own process group; see that file for the command line."""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import pyarrow as pa

from . import check, layers, ledger, session
from .workloads import (
    PATHS, SINK_SHARDS, WORKLOADS, PassResult, Table, prepare, remove_half,
    run_extract_only, status_histogram,
)

#: set-ups per measured run; ``setup_s`` is their median
SETUPS = 2
#: resumes after each fresh write of ``checkpoint_sink``; its resume is
#: the noisiest timing, so each run takes the median of two
RESUMES = 2
#: wall-clock limit of one call into the program
PASS_LIMIT = 60.0
#: this process must have printed its result by then (the launcher
#: kills the process group at 175 s)
BUDGET = 160.0

T_START = time.perf_counter()


class RunTimeout(Exception):
    pass


def _remaining() -> float:
    return BUDGET - (time.perf_counter() - T_START)


def _limited(fn):
    limit = min(PASS_LIMIT, _remaining() - 5)
    result, error, timed_out = session.call_with_limit(fn, max(1.0, limit))
    if timed_out:
        raise RunTimeout(f"no result within {limit:.0f} s")
    if error is not None:
        raise error
    return result


class Runner:
    """One workload on one table: passes, each checked after timing."""

    def __init__(self, wl, table: Table, seed: int, work: str):
        self.wl, self.table, self.seed = wl, table, seed
        self.sink_dir = os.path.join(work, "sink")

    def one_pass(self, tr, capture=None) -> dict:
        """Run the workload's path once and check it. Returns timings,
        the output status histogram, any problems, and the executed
        Datasets' stats when ``capture`` is given."""
        wl, table = self.wl, self.table
        shutil.rmtree(self.sink_dir, ignore_errors=True)
        os.makedirs(self.sink_dir)
        res: PassResult = _limited(
            lambda: PATHS[wl.name](table, tr, out_dir=self.sink_dir, capture=capture))
        stats = [ledger.op_stats(ds) for ds in res.datasets] if capture else []
        rec = dict(wall_s=res.wall_s, first_batch_s=res.first_batch_s, t0=res.t0, stats=stats)
        res.datasets.clear()
        with tr.span("check"):
            if wl.name == "checkpoint_sink":
                problems, fresh = check.sink(self.sink_dir, table, SINK_SHARDS)
                out = pa.concat_tables(fresh["parts"].values())
            else:
                out = pa.concat_tables(res.batches)
                problems = check.per_turn(out, table)
                if wl.name == "ordered_shuffle":
                    from weakscraper_ray.stages.ordering import DEFAULT_TURNS_PER_GROUP

                    problems += check.contiguous(out, DEFAULT_TURNS_PER_GROUP)
        rec["histogram"] = status_histogram(out)
        del res, out
        if wl.name == "checkpoint_sink":
            rec.update(self._resume(tr, capture, problems, fresh))
        else:
            # no checkpoint: recovering the output means running it all again
            rec["resumes"] = [rec["wall_s"]]
        rec["problems"] = problems
        return rec

    def _resume(self, tr, capture, problems: list, fresh: dict) -> dict:
        """``RESUMES`` times: remove a seeded half of the committed
        partitions (a different half each time) and resume; every resumed
        output must equal the fresh write."""
        rec = dict(partitions=len(fresh["manifests"]), resumes=[], resume_stats=[], bytes=sum(
            os.path.getsize(os.path.join(self.sink_dir, f"part={p}", "data.parquet"))
            for p in fresh["parts"]))
        for i in range(RESUMES):
            remove_half(self.sink_dir, self.seed + i)
            session.wait_idle()
            with tr.span("resume"):
                res = _limited(lambda: PATHS["checkpoint_sink"](
                    self.table, tr, out_dir=self.sink_dir, capture=capture))
            rec["resumes"].append(res.wall_s)
            rec["resume_stats"] += [ledger.op_stats(ds) for ds in res.datasets]
            res.datasets.clear()
            with tr.span("check"):
                found, resumed = check.sink(self.sink_dir, self.table, SINK_SHARDS)
                problems += found + check.same_sink(fresh, resumed)
        return rec

    def warm(self, tiny: Table) -> None:
        shutil.rmtree(self.sink_dir, ignore_errors=True)
        os.makedirs(self.sink_dir)
        _limited(lambda: PATHS[self.wl.name](tiny, ledger.NullTracer(), out_dir=self.sink_dir))
        session.wait_idle()


# -- reporting -------------------------------------------------------------


def tail(values: list[float]) -> str:
    """The highest of p99/p90/p50 with at least ten samples beyond it."""
    n = len(values)
    for p in (99, 90, 50):
        if n * (100 - p) / 100 >= 10:
            return f"p{p} {statistics.quantiles(values, n=100)[p - 1]:.4g}"
    return "no tail percentile (needs >= 20 samples)"


def median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


def emit(correct: bool, attempted: int, failed: int, metrics: dict) -> None:
    print(json.dumps(dict(correct=correct, attempted=attempted, failed=failed, metrics={
        k: dict(value=v, unit=u) for k, (v, u) in metrics.items()})), flush=True)


def _nproc():
    try:
        return int(subprocess.run(["nproc"], capture_output=True, text=True).stdout)
    except (OSError, ValueError):
        return None


def header(wl, table: Table, seed: int) -> None:
    facts = dict(nproc=_nproc(), affinity=sorted(os.sched_getaffinity(0)),
                 num_cpus=session.NUM_CPUS)
    print(f"perfbench {wl.name} seed={seed} {json.dumps(facts)}")
    print(f"table: {table.rows} turns, oracle {json.dumps(table.histogram())}")


def _setup(runner: Runner, tiny: Table, work: str) -> float:
    t = time.perf_counter()
    session.start(work)
    runner.warm(tiny)
    return time.perf_counter() - t


def measured(wl, seed: int, seconds: float, work: str) -> int:
    # import Ray and the package first, so that every set-up does the same work
    import weakscraper_ray.pipelines.extraction  # noqa: F401

    data = os.path.join(work, "data")
    tiny = prepare(wl, seed, data, tiny=True)
    runner = Runner(wl, tiny, seed, work)
    setups = []
    for i in range(SETUPS):
        setups.append(_setup(runner, tiny, work))
        if i < SETUPS - 1:
            session.stop()
    t_gen = time.perf_counter()
    table = prepare(wl, seed, data)
    runner.table = table
    t_gen = time.perf_counter() - t_gen
    header(wl, table, seed)
    recs, failed, errors = [], 0, []
    timed_out = False
    steal0 = session.cpu_steal()
    with session.ProcessSampler() as sampler:
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or not recs:
            last = max((r["wall_s"] + sum(r["resumes"]) for r in recs), default=0.0)
            if recs and _remaining() < 3 * last + 15:
                break
            session.wait_idle()
            try:
                rec = runner.one_pass(ledger.NullTracer())
            except RunTimeout as e:
                failed, timed_out = failed + 1, True
                errors.append(str(e))
                break
            except Exception as e:  # a run that raises is a counted failure
                failed += 1
                errors.append(f"{type(e).__name__}: {e}")
                if failed > 2:
                    break
                continue
            if rec["problems"]:
                failed += 1
                errors.extend(rec["problems"])
            else:
                recs.append(rec)
    attempted = len(recs) + failed
    steal = session.cpu_steal()
    print(f"phases: set-ups {sum(setups):.1f} s, "
          f"input {t_gen:.1f} s, passes {time.perf_counter() - t0:.1f} s; CPU time stolen by "
          f"the hypervisor during the passes: {session.steal_share(steal0, steal):.1%}")
    rates = [table.rows / r["wall_s"] for r in recs]
    series = {
        "turns_per_s": (rates, "1/s"),
        "first_batch_s": ([r["first_batch_s"] for r in recs], "s"),
        "resume_s": ([s for r in recs for s in r["resumes"]], "s"),
        "setup_s": (setups, "s"),
    }
    for name, (vals, unit) in series.items():
        print(f"{name:14s} median {median(vals):.6g} {unit}  n={len(vals)}  {tail(vals)}  "
              f"[{', '.join(f'{v:.4g}' for v in vals)}]")
    print(f"{'peak_rss_mb':14s} {sampler.peak_mb:.1f} MB  (driver + Ray processes, peak of sums)")
    print(f"{'failed_frac':14s} {failed}/{attempted}")
    for e in errors[:10]:
        print(f"  failure: {e}")
    metrics = {k: (median(v), u) for k, (v, u) in series.items()}
    metrics["peak_rss_mb"] = (sampler.peak_mb, "MB")
    emit(failed == 0, attempted, failed, metrics)
    if timed_out:
        _abandon()
    session.stop()
    return 0


def _abandon() -> None:
    """After a hang: tear Ray down if it still answers, then exit without
    waiting for the stuck thread (the launcher kills what is left)."""
    session.call_with_limit(session.stop, 20)
    sys.stdout.flush()
    os._exit(0)


# -- traced run --------------------------------------------------------------


def traced(wl, seed: int, work: str) -> int:
    data = os.path.join(work, "data")
    tiny = prepare(wl, seed, data, tiny=True)
    runner = Runner(wl, tiny, seed, work)
    _setup(runner, tiny, work)
    table = prepare(wl, seed, data)
    runner.table = table
    header(wl, table, seed)
    tr = ledger.Tracer()
    problems: list[str] = []
    try:
        session.wait_idle()
        plain = runner.one_pass(ledger.NullTracer(), capture=ledger.capture_datasets)
        session.wait_idle()
        tr.run = "traced"
        with session.ProcessSampler() as sampler, tr.span("pass"):
            traced_rec = runner.one_pass(tr, capture=ledger.capture_datasets)
        base, base_problems, base_stats = None, [], []
        if wl.name != "extract_stream":
            session.wait_idle()
            tr.run = "extract_only"
            shutil.rmtree(runner.sink_dir, ignore_errors=True)
            with tr.span("pass"):
                base = _limited(lambda: run_extract_only(table, tr, wl, runner.sink_dir))
            base_problems = check.per_turn(pa.concat_tables(base.batches), table)
            problems += [f"extract-only: {p}" for p in base_problems]
            base_stats = [ledger.op_stats(ds) for ds in base.datasets]
            base.batches.clear()
            base.datasets.clear()
    except RunTimeout as e:
        print(f"  failure: {e}")
        emit(False, 1, 1, {})
        _abandon()
    session.stop()
    tr.run = "layers"
    lay = layers.measure_pinned(table.dir, seed, wl.heuristic, tr)
    problems += plain["problems"] + traced_rec["problems"]
    metrics = layer_metrics(wl, table, plain, traced_rec, base, lay, sampler.max_count)
    print("span self times (s): " + ", ".join(
        f"{k} {v:.3f}" for k, v in ledger.self_times(tr.spans).items()))
    for p in problems[:10]:
        print(f"  failure: {p}")
    out = os.path.join(work, "out")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, f"trace-{wl.name}-s{seed}.json")
    stats = {name: [s["text"] for s in rec["stats"] + rec.get("resume_stats", [])]
             for name, rec in (("untraced", plain), ("traced", traced_rec))}
    stats["extract_only"] = [s["text"] for s in base_stats]
    with open(path, "w") as fh:
        json.dump(dict(workload=wl.name, seed=seed, spans=tr.spans, layers=lay, stats=stats,
                       metrics={k: v for k, (v, _) in metrics.items()}), fh, indent=1)
    print(f"trace written to {os.path.relpath(path)}")
    runs = [plain["problems"], traced_rec["problems"]] + ([base_problems] if base else [])
    emit(not problems, len(runs), sum(1 for p in runs if p), metrics)
    return 0


def layer_metrics(wl, table: Table, plain, rec, base, lay, pool_actors) -> dict:
    """Per-layer metrics of a traced run, and the reconciliation printout."""
    m: dict[str, tuple[float, str]] = {}
    units = {"_us": "us", "_ms": "ms"}
    print("in-process, one core, no Ray (median, spread = IQR/median, n items):")
    for name, r in lay.items():
        m[name] = (r["median"], units[name[-3:]])
        spread = "" if r["spread"] is None else f"spread {r['spread']:.3f}"
        print(f"  {name:22s} {r['median']:10.3f} {units[name[-3:]]}  {spread}  n={r['n']}")
    ops = ledger.by_slug(rec["stats"][0]["ops"]) if rec["stats"] else {}
    print(f"Ray operators of the traced run (wall {rec['wall_s']:.3f} s):")
    for o in rec["stats"][0]["ops"] if rec["stats"] else []:
        span = (o["end"] - o["start"]) if o["start"] is not None else 0.0
        print(f"  {o['name'][:60]:60s} -> {o['slug']:12s} wall {o['wall_s']:.3f} s  "
              f"cpu {o['cpu_s']:.3f} s  rows {o['rows']}  span {span:.3f} s")
    for slug, _ in ledger.OP_SLUGS:
        o = ops.get(slug, dict(wall_s=0.0, cpu_s=0.0, rows=0))
        m[f"ray.{slug}.wall_s"] = (o["wall_s"], "s")
        m[f"ray.{slug}.cpu_s"] = (o["cpu_s"], "s")
        m[f"ray.{slug}.rows"] = (o["rows"], "count")
    spans = {s: o["end"] - o["start"] for s, o in ops.items() if o["start"] is not None}
    longest = max(spans, key=spans.get) if spans else None
    gap = rec["wall_s"] - (spans[longest] if longest else 0.0)
    m["ray.gap_s"] = (gap, "s")
    ex = ops.get("extract")
    m["ray.extract_start_s"] = ((ex["start"] - rec["t0"]) if ex and ex["start"] else 0.0, "s")
    busy = sum(o["wall_s"] for o in ops.values())
    print("reconciliation:")
    print(f"  run wall {rec['wall_s']:.3f} s = longest operator span "
          f"({longest}) {spans.get(longest, 0.0):.3f} s + gap {gap:.3f} s; first Extractor "
          f"task {m['ray.extract_start_s'][0]:.3f} s after run start")
    print(f"  summed operator busy time {busy:.3f} s over {session.NUM_CPUS} CPUs = "
          f"{busy / (rec['wall_s'] * session.NUM_CPUS):.1%} of session CPU time; "
          + ", ".join(f"{s} {o['wall_s']:.3f}" for s, o in ops.items()))
    row_us = lay["extract.row_us"]["median"]
    per_core = 1e6 / row_us
    op_rate = (ex["rows"] / spans["extract"]) if ex and spans.get("extract") else 0.0
    eff = op_rate / (pool_actors * per_core) if pool_actors else 0.0
    m["extract.pool_actors"] = (pool_actors, "count")
    m["extract.pool_efficiency"] = (eff, "ratio")
    print(f"  Extractor operator {op_rate:.0f} rows/s vs {pool_actors} actors x "
          f"{per_core:.0f} rows/s per core in-process = {pool_actors * per_core:.0f} rows/s: "
          f"efficiency {eff:.3f}")
    exchange = plain["wall_s"] - base.wall_s if base is not None else 0.0
    m["exchange_s"] = (exchange, "s")
    if base is not None:
        print(f"  exchange_s {exchange:.3f} s = {wl.name} wall {plain['wall_s']:.3f} s - "
              f"extract-only wall {base.wall_s:.3f} s")
    else:
        print("  exchange_s 0: extract_stream has no exchange in its plan")
    if wl.name == "checkpoint_sink":
        w = ops.get("sink_write")
        m["checkpoint.write_s"] = ((w["end"] - w["start"]) if w and w["start"] else 0.0, "s")
        m["checkpoint.partitions"] = (rec["partitions"], "count")
        m["checkpoint.bytes"] = (rec["bytes"], "bytes")
        rops = ledger.by_slug(rec["resume_stats"][0]["ops"]) if rec["resume_stats"] else {}
        redone = rops.get("extract", {}).get("rows", table.rows)
        m["checkpoint.pruned_frac"] = (1 - redone / table.rows, "ratio")
        print(f"  resume {rec['resumes'][0]:.3f} s re-extracted {redone} of {table.rows} rows")
    else:
        for k, u in (("write_s", "s"), ("partitions", "count"), ("bytes", "bytes"),
                     ("pruned_frac", "ratio")):
            m[f"checkpoint.{k}"] = (0.0, u)
    h = rec["histogram"]
    for k in ("ok", "error", "heuristic", "skipped"):
        m[f"extract.{k}"] = (h[k], "count")
    html = table.rows - h["skipped"]
    m["extract.ok_frac"] = (h["ok"] / html if html else 0.0, "ratio")
    overhead = plain["wall_s"] / rec["wall_s"]
    m["trace.overhead"] = (overhead, "ratio")
    print(f"  trace.overhead {overhead:.3f} = traced turns/s {table.rows / rec['wall_s']:.0f}"
          f" / untraced {table.rows / plain['wall_s']:.0f}")
    print(f"  status histogram {json.dumps(h)}, oracle {json.dumps(table.histogram())}")
    return m


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="perfbench")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    work = os.path.join(os.getcwd(), ".pb")
    wl = WORKLOADS[args.workload]
    if args.trace:
        return traced(wl, args.seed, work)
    return measured(wl, args.seed, args.seconds, work)


if __name__ == "__main__":
    sys.exit(main())
