"""The traced run: per-layer metrics measured from outside the program.

``replay`` sends one fixed list of query specs through each layer
boundary in turn, query by query, in interleaved rounds until the time
is up:

    scan_posteriors -> in-memory tree session -> disk session
    -> deployed session -> 2-shard sharded session -> JsonlClient

Work counters (nodes, objects refined, pages, faults) come from the
first round only, which starts from a freshly opened, identically
warmed disk session, so they repeat exactly for a given seed. Times
are medians over every round. Span trees come from the program's own
tracing (``repro.obs.trace.tracing`` in-process, ``trace=True`` on
JSONL); a layer's self time is its span minus what its children cover.

``wal_probe`` times the write-ahead log on a writable copy of a
read-only workload's index, so every workload reports every layer.
"""

from __future__ import annotations

import os
import shutil
import time

from common import (
    BenchError,
    iter_spans,
    mean,
    median,
    metrics_diff,
    parse_metrics,
    pct,
    self_time,
)

#: Per-layer metric names and units, in report order. BENCHMARK.json
#: lists the same names plus ``bench.steal_fraction``, which ``run.py``
#: measures around every run.
LAYER_METRICS = {
    "core.scan_ms": "ms",
    "gausstree.query_ms": "ms",
    "gausstree.query_ms.mliq1": "ms",
    "gausstree.query_ms.mliq10": "ms",
    "gausstree.query_ms.tiq": "ms",
    "gausstree.query_ms.consensus": "ms",
    "gausstree.nodes_per_query": "count",
    "gausstree.refined_fraction": "ratio",
    "gausstree.scan_ratio": "ratio",
    "storage.page_ms": "ms",
    "storage.pages_per_query": "count",
    "storage.faults_per_query": "count",
    "storage.buffer_hit_ratio": "ratio",
    "storage.wal_commit_p50_ms": "ms",
    "storage.wal_commit_p99_ms": "ms",
    "storage.wal_bytes_per_write": "B",
    "storage.fsyncs_per_write": "count",
    "engine.execute_ms": "ms",
    "cluster.shard_ms": "ms",
    "cluster.fanout_self_ms": "ms",
    "cluster.retries": "count",
    "serve.admission_wait_p50_ms": "ms",
    "serve.admission_wait_p99_ms": "ms",
    "serve.batch_size": "count",
    "serve.execute_ms": "ms",
    "serve.shed_fraction": "ratio",
    "serve.write_batch_size": "count",
    "wire.overhead_ms": "ms",
    "bench.lag_p99_ms": "ms",
    "bench.host_probe_ms": "ms",
    "bench.trace_overhead_ms": "ms",
}


def kind_name(spec) -> str:
    """``mliq1`` / ``mliq10`` / ``tiq`` / ``consensus``."""
    if spec.kind == "mliq":
        return f"mliq{spec.k}"
    return spec.kind


def all_kinds(q):
    """One spec of each kind the ds1 rotation uses, for query ``q``."""
    from repro import MLIQ, TIQ, ConsensusTopK

    return [MLIQ(q, 1), MLIQ(q, 10), TIQ(q, 0.1), ConsensusTopK(q, 3)]


def _timed(fn):
    started = time.perf_counter()
    value = fn()
    return time.perf_counter() - started, value


def _spans_named(trace_dict, name):
    return [s for s in iter_spans(trace_dict.get("spans", ())) if s["name"] == name]


def cluster_times(trace_dict, fanout_self, shard_times) -> None:
    """Collect ``cluster.fanout`` self time and per-shard times from one
    span tree. The serial pool nests each shard's own
    ``session.execute`` under the fan-out; the synthesized ``shard``
    spans span the whole fan-out and are used only without them."""
    for fanout in _spans_named(trace_dict, "cluster.fanout"):
        real = [c for c in fanout.get("children", ()) if c["name"] != "shard"]
        if real:
            shard_times.extend(c["dur"] for c in real)
        else:
            shard_times.extend(
                c["dur"] for c in fanout.get("children", ()) if c["name"] == "shard"
            )
        fanout_self.append(self_time(dict(fanout, children=real)))


def replay(
    *,
    db,
    specs,
    open_disk,
    deployed,
    sharded,
    client,
    seconds: float,
) -> dict:
    """Per-layer times and counters over ``specs`` (see module doc).

    ``open_disk()`` returns a freshly opened and warmed disk session,
    configured like the workload's; ``deployed`` is the in-process
    session of the workload's deployment; ``sharded`` a read-only
    sharded session; ``client`` a ``JsonlClient`` to the served
    deployment.
    """
    from repro import connect
    from repro.core.scan import scan_posteriors
    from repro.obs.metrics import get_global_registry
    from repro.obs.trace import Trace, tracing

    scrape_before = scrape(client)
    local_before = parse_metrics(get_global_registry().render())
    tree = connect(db, backend="tree")
    disk = open_disk()
    n = len(db)
    t_scan, t_tree, t_page, t_engine = [], [], [], []
    t_kind = {k: [] for k in ("mliq1", "mliq10", "tiq", "consensus")}
    trace_cost, wire_over, serve_exec, adm_wait = [], [], [], []
    fanout_self, shard_times = [], []
    counters = {"nodes": [], "refined": [], "pages": [], "faults": [], "hits": []}
    deadline = time.perf_counter() + seconds
    rounds = 0
    try:
        while rounds == 0 or time.perf_counter() < deadline:
            for i, spec in enumerate(specs):
                dt, _ = _timed(lambda: scan_posteriors(db, spec.q))
                t_scan.append(dt)
                # The tree answers every kind; the workload's own kind is
                # the one the aggregate and the counters use.
                for kspec in all_kinds(spec.q):
                    dt, rs = _timed(lambda: tree.execute(kspec))
                    t_kind[kind_name(kspec)].append(dt)
                    if kind_name(kspec) == kind_name(spec):
                        dt_tree, rs_tree = dt, rs
                t_tree.append(dt_tree)
                dt_disk, rs_disk = _timed(lambda: disk.execute(spec))
                t_page.append(dt_disk - dt_tree)
                if rounds == 0:
                    st = rs_tree.stats
                    counters["nodes"].append(st.nodes_expanded)
                    counters["refined"].append(st.objects_refined / n)
                    ds = rs_disk.stats
                    counters["pages"].append(ds.pages_accessed)
                    counters["faults"].append(ds.page_faults)
                    counters["hits"].append(ds.pages_accessed - ds.page_faults)
                dt, _ = _timed(lambda: deployed.execute(spec))
                t_engine.append(dt)
                trace = Trace()
                with tracing(trace):
                    sharded.execute(spec)
                cluster_times(trace.to_dict(), fanout_self, shard_times)
                # Traced and untraced round trips of the same query, in
                # alternating order; their difference is the tracing cost.
                rtt = {}
                for traced in ((True, False) if (i + rounds) % 2 else (False, True)):
                    rtt[traced], resp = _timed(lambda: client.query([spec], trace=traced))
                    if resp.get("status") != 200:
                        raise BenchError(f"wire query failed: {resp}")
                    if traced:
                        tdict = resp["trace"]
                        request = _spans_named(tdict, "request")[0]
                        wire_over.append(rtt[True] - request["dur"])
                        serve_exec.extend(s["dur"] for s in _spans_named(tdict, "serve.execute"))
                        adm_wait.extend(s["dur"] for s in _spans_named(tdict, "admission.wait"))
                trace_cost.append(rtt[True] - rtt[False])
            rounds += 1
    finally:
        tree.close()
        disk.close()
    served = serve_counters(*scrape_before, *scrape(client))
    local_after = parse_metrics(get_global_registry().render())
    served["cluster.retries"] += metrics_diff(
        local_before, local_after, "repro_cluster_retry_total"
    )

    ms = 1e3
    tree_ms = median(t_tree) * ms
    scan_ms = median(t_scan) * ms
    pages = sum(counters["pages"])
    out = {
        "core.scan_ms": scan_ms,
        "gausstree.query_ms": tree_ms,
        "gausstree.nodes_per_query": mean(counters["nodes"]),
        "gausstree.refined_fraction": mean(counters["refined"]),
        "gausstree.scan_ratio": tree_ms / scan_ms,
        "storage.page_ms": median(t_page) * ms,
        "storage.pages_per_query": mean(counters["pages"]),
        "storage.faults_per_query": mean(counters["faults"]),
        "storage.buffer_hit_ratio": sum(counters["hits"]) / pages if pages else 0.0,
        "engine.execute_ms": median(t_engine) * ms,
        "cluster.shard_ms": median(shard_times) * ms,
        "cluster.fanout_self_ms": median(fanout_self) * ms,
        "wire.overhead_ms": median(wire_over) * ms,
        "serve.execute_ms": median(serve_exec) * ms,
        "serve.admission_wait_p50_ms": median(adm_wait) * ms,
        "serve.admission_wait_p99_ms": pct(adm_wait, 99) * ms,
        "bench.trace_overhead_ms": median(trace_cost) * ms,
    }
    for kind, times in t_kind.items():
        out[f"gausstree.query_ms.{kind}"] = median(times) * ms
    out.update(served)
    out["_samples"] = rounds * len(specs)
    return out


def wal_probe(index_path: str, vectors, workdir: str) -> dict:
    """WAL commit latency, bytes and fsyncs per write on a writable
    copy of a read-only workload's index: each vector is inserted under
    a fresh key and deleted again, every write one fsync'd commit."""
    from repro import PFV, connect
    from repro.obs.metrics import get_global_registry
    from repro.obs.trace import Trace, tracing

    copy = os.path.join(workdir, "wal-probe.gauss")
    shutil.copyfile(index_path, copy)
    wal = copy + ".wal"
    before = parse_metrics(get_global_registry().render())
    trace = Trace()
    writes = 0
    session = connect(copy, backend="disk", writable=True)
    try:
        start_bytes = os.path.getsize(wal) if os.path.exists(wal) else 0
        with tracing(trace):
            for i, v in enumerate(vectors):
                probe = PFV(v.mu, v.sigma, key=("wal-probe", i))
                session.insert(probe)
                if not session.delete(probe):
                    raise BenchError("wal probe: inserted vector not found")
                writes += 2
        wal_bytes = os.path.getsize(wal) - start_bytes
    finally:
        session.close()
    after = parse_metrics(get_global_registry().render())
    commits = [s["dur"] for s in _spans_named(trace.to_dict(), "wal.commit")]
    return {
        "storage.wal_commit_p50_ms": median(commits) * 1e3,
        "storage.wal_commit_p99_ms": pct(commits, 99) * 1e3,
        "storage.wal_bytes_per_write": wal_bytes / writes,
        "storage.fsyncs_per_write": metrics_diff(before, after, "repro_wal_fsync_total") / writes,
    }


def scrape(client) -> tuple[dict, dict]:
    """``/metrics`` (parsed) and ``/stats`` of a served deployment."""
    return parse_metrics(client.metrics()), client.stats()


def serve_counters(before_m, before_s, after_m, after_s) -> dict:
    """Serving-tier layer metrics from ``/metrics`` and ``/stats``
    scraped before and after a load phase."""
    d = lambda name: metrics_diff(before_m, after_m, name)  # noqa: E731
    admitted = d("repro_serve_admitted_total")
    shed = d("repro_serve_shed_total")
    read_batches = after_s["coalescing"]["read_batches"] - before_s["coalescing"]["read_batches"]
    queries = after_s["queries"] - before_s["queries"]
    writes = sum(after_s[k] - before_s[k] for k in ("inserts", "deletes"))
    write_batches = sum(
        after_s[k] - before_s[k] for k in ("insert_batches", "delete_batches")
    )
    return {
        "serve.batch_size": queries / read_batches if read_batches else 0.0,
        "serve.shed_fraction": shed / (admitted + shed) if admitted + shed else 0.0,
        "serve.write_batch_size": writes / write_batches if write_batches else 0.0,
        "cluster.retries": d("repro_cluster_retry_total"),
    }


def load_phase(traces, lag, probes, before, after) -> dict:
    """Serving-tier layer metrics of a traced load phase: span times
    from the span trees the server returned, counters from ``/metrics``
    and ``/stats`` scraped ``before`` and ``after``."""
    spans = [s for t in traces for s in iter_spans(t["spans"])]
    waits = [s["dur"] for s in spans if s["name"] == "admission.wait"]
    execs = [s["dur"] for s in spans if s["name"] == "serve.execute"]
    out = serve_counters(*before, *after)
    out.update({
        "serve.admission_wait_p50_ms": median(waits) * 1e3,
        "serve.admission_wait_p99_ms": pct(waits, 99) * 1e3,
        "serve.execute_ms": median(execs) * 1e3,
        "bench.lag_p99_ms": pct(lag, 99) * 1e3,
        "bench.host_probe_ms": median(probes),
    })
    return out


def record(res, values: dict) -> None:
    """Put every per-layer metric into ``res``; a missing one is a bug."""
    samples = values.get("_samples", 1)
    for name, unit in LAYER_METRICS.items():
        res.metric(name, values[name], unit, samples)
