"""Workload ``ds2-serve``: an open-loop request stream against the async
serving tier, on an index that fits the page cache.

The data set 2 index at scale 0.2 (``dataset2(0.2)``, 20,000 x 10,
format v3) is served by ``serve_async`` over ``connect(path)`` in a
child process; its default cache holds the whole index. One generator
thread sends singleton requests over two pipelined JSONL connections
on a fixed schedule, a 3:1 mix of MLIQ k=10 and TIQ 0.1, at each rate
of a fixed ladder in turn. Latency is timed from each request's
scheduled send time, so a stall also charges the requests queued
behind it.
"""

from __future__ import annotations

import os
import select
import time

import numpy as np

from common import (
    BenchError,
    LineConnection,
    Result,
    ServerProcess,
    check_answer,
    host_probe_ms,
    make_workdir,
    matches_of_wire,
    median,
    pct,
    remove_workdir,
)
import layers

#: The rate ladder: rung, queries per second, share of the run. The
#: gated latencies pool ``low`` and ``high``; ``peak`` only probes
#: ``max_rate_qps``.
LADDER = (("low", 3.0, 0.35), ("high", 5.0, 0.45), ("peak", 9.0, 0.2))
#: p95 limit a rung must meet to count towards ``max_rate_qps``.
LATENCY_LIMIT_S = 0.250
CONNECTIONS = 2
WARMUP_QUERIES = 8
CHECKED = 32
REPLAY_QUERIES = 16
#: How long the generator waits for answers after the last send.
DRAIN_S = 60.0


def make_specs(db, n: int, seed: int):
    from repro import MLIQ, TIQ
    from repro.data.workload import identification_workload

    return [
        TIQ(item.q, 0.1) if i % 4 == 3 else MLIQ(item.q, 10)
        for i, item in enumerate(identification_workload(db, n, seed=seed))
    ]


def start_server(db, path: str, warm) -> ServerProcess:
    """Bulk load, save, start the child server and warm it up: the
    set-up that ``setup_s`` times."""
    from repro.gausstree import bulk_load
    from repro.serve import JsonlClient
    from repro.storage.layout import PageLayout

    tree = bulk_load(db.vectors, layout=PageLayout(dims=db.dims), sigma_rule=db.sigma_rule)
    tree.save(path)
    del tree
    server = ServerProcess("--index", path)
    try:
        with JsonlClient(*server.address) as client:
            for spec in warm:
                if client.query([spec]).get("status") != 200:
                    raise BenchError("warm-up query failed")
    except BaseException:
        server.kill()
        raise
    return server


def run(seed: int, seconds: float, trace: bool, repeats: int) -> Result:
    from repro.eval.figures import dataset2

    res = Result()
    db = dataset2(0.2)
    keys = [v.key for v in db]
    warm = make_specs(db, WARMUP_QUERIES, seed + 1_000_003)
    specs = make_specs(db, 2000, seed)
    work = make_workdir()
    server = None
    try:
        setups = []
        for rep in range(repeats):
            if server is not None:
                server.stop()
            path = os.path.join(work, f"ds2-{rep}.gauss")
            started = time.perf_counter()
            server = start_server(db, path, warm)
            setups.append(time.perf_counter() - started)
        if trace:
            _traced(res, db, keys, path, server, specs, seconds, seed, work)
        else:
            loop = open_loop(res, db, keys, server.address, specs, LADDER, seconds, seed, False)
            _report(res, loop)
            res.metric("setup_s", median(setups), "s", len(setups))
            res.metric("bytes_per_object", os.path.getsize(path) / len(db), "B", 1)
            res.metric("peak_rss_mb", server.peak_rss_mb(), "MB", 1)
        server.stop()
        res.note(f"index {os.path.getsize(path)} B, {len(db)} objects, default cache")
    finally:
        if server is not None:
            server.kill()
        remove_workdir(work)
    return res


def open_loop(res, db, keys, address, specs, ladder, seconds, seed, traced) -> dict:
    """Send ``specs`` on the ladder's schedule from one thread over
    ``CONNECTIONS`` connections; collect per-rung latencies from the
    scheduled send time, generator lateness and in-flight counts."""
    from repro.cluster.wire import spec_to_json

    schedule = []  # (offset seconds, rung)
    offset = 0.0
    for rung, rate, share in ladder:
        span = seconds * share
        schedule += [(offset + j / rate, rung) for j in range(int(span * rate))]
        offset += span
    rng = np.random.default_rng(seed)
    checked = set(int(i) for i in rng.choice(len(schedule), min(CHECKED, len(schedule)), replace=False))
    conns = [LineConnection(address) for _ in range(CONNECTIONS)]
    by_sock = {c.sock: c for c in conns}
    pending: dict[int, float] = {}
    lat = {rung: [] for rung, _, _ in ladder}
    inflight = {rung: [] for rung, _, _ in ladder}
    window = {}  # rung -> [first scheduled send, last answer]
    lag, answers, spans = [], {}, []
    probes = [host_probe_ms()]
    start = time.perf_counter() + 0.05
    nxt = 0
    drain_deadline = None
    try:
        while nxt < len(schedule) or pending:
            now = time.perf_counter()
            if nxt < len(schedule):
                due = start + schedule[nxt][0]
                if now >= due:
                    envelope = {"op": "query", "id": nxt,
                                "queries": [spec_to_json(specs[nxt % len(specs)])]}
                    if traced:
                        envelope["trace"] = True
                    conns[nxt % CONNECTIONS].send(envelope)
                    lag.append(time.perf_counter() - due)
                    pending[nxt] = due
                    window.setdefault(schedule[nxt][1], [due, due])
                    inflight[schedule[nxt][1]].append(len(pending))
                    nxt += 1
                    continue
                timeout = due - now
            else:
                if drain_deadline is None:
                    drain_deadline = now + DRAIN_S
                if now > drain_deadline:
                    raise BenchError(f"{len(pending)} requests never answered")
                timeout = drain_deadline - now
            ready, _, _ = select.select(list(by_sock), [], [], timeout)
            for sock in ready:
                for resp in by_sock[sock].read_lines():
                    done = time.perf_counter()
                    rid = resp["id"]
                    due = pending.pop(rid)
                    rung = schedule[rid][1]
                    window[rung][1] = max(window[rung][1], done)
                    if resp.get("status") != 200:
                        res.fail(f"request {rid}: status {resp.get('status')}")
                        lat[rung].append(float("inf"))  # misses every limit
                        continue
                    lat[rung].append(done - due)
                    if rid in checked:
                        answers[rid] = matches_of_wire(resp["results"][0])
                    if traced:
                        spans.append(resp["trace"])
    finally:
        for c in conns:
            c.close()
    probes.append(host_probe_ms())
    res.attempted += len(schedule)
    for rid, got in answers.items():
        problem = check_answer(db, keys, specs[rid % len(specs)], got)
        if problem:
            res.fail(f"request {rid}: {problem}", wrong=True)
    res.note(f"answers checked against the scan: {len(answers)}")
    return {"lat": lat, "inflight": inflight, "lag": lag, "spans": spans,
            "probes": probes, "ladder": ladder, "window": window}


def _rung_ok(loop, rung: str, rate: float) -> bool:
    """p95 within the limit and no backlog growth: the in-flight count
    at the rung's last send is no higher than at its midpoint plus a
    quarter second of arrivals."""
    lat, flights = loop["lat"][rung], loop["inflight"][rung]
    if not lat or pct(lat, 95) > LATENCY_LIMIT_S:
        return False
    return flights[-1] <= flights[len(flights) // 2] + max(2.0, rate / 4)


def _report(res, loop) -> None:
    ms = 1e3
    lat = loop["lat"]
    # The gated latencies pool the two rungs well under the knee: either
    # alone holds too few requests for a steady percentile, and ``peak``
    # nears saturation when the host slows, which only max_rate_qps uses.
    pooled = lat["low"] + lat["high"]
    res.metric("query_p50_ms", median(pooled) * ms, "ms", len(pooled))
    res.note(f"query_p90_ms {pct(pooled, 90) * ms:.3f} ms (n={len(pooled)})")
    # Answers within the limit per second of the high rung, from its
    # first scheduled send to its last answer.
    first, last = loop["window"]["high"]
    good = sum(1 for t in lat["high"] if t <= LATENCY_LIMIT_S)
    res.metric("throughput_per_s", good / (last - first), "1/s", len(lat["high"]))
    max_rate = 0.0
    for rung, rate, _ in loop["ladder"]:
        ok = _rung_ok(loop, rung, rate)
        if ok:
            max_rate = rate
        res.note(
            f"rung {rung} {rate:g} q/s: query_p50_ms.{rung} {median(lat[rung]) * ms:.3f} "
            f"query_p95_ms.{rung} {pct(lat[rung], 95) * ms:.3f} ms (n={len(lat[rung])}) "
            f"in-flight max {max(loop['inflight'][rung], default=0)} "
            f"{'meets' if ok else 'misses'} the limit"
        )
    res.note(f"max_rate_qps {max_rate:g} q/s (p95 <= {LATENCY_LIMIT_S * ms:g} ms)")
    res.note(f"bench.lag_p99_ms {pct(loop['lag'], 99) * ms:.4f} ms (n={len(loop['lag'])})")
    res.note(f"bench.host_probe_ms {median(loop['probes']):.3f} ms")


def _traced(res, db, keys, path, server, specs, seconds, seed, work) -> None:
    from repro import connect
    from repro.cluster.partition import build_shards
    from repro.serve import JsonlClient

    with JsonlClient(*server.address) as client:
        before = layers.scrape(client)
        high = [(rung, rate, 1.0) for rung, rate, _ in LADDER if rung == "high"]
        loop = open_loop(res, db, keys, server.address, specs, high, seconds / 2, seed, True)
        after = layers.scrape(client)
        manifest = build_shards(db, 2, os.path.join(work, "ds2-shards"), policy="hash")
        with connect(path) as deployed, \
                connect(manifest.source_path, backend="sharded") as sharded:
            out = layers.replay(
                db=db,
                specs=specs[:REPLAY_QUERIES],
                open_disk=lambda: connect(path),
                deployed=deployed,
                sharded=sharded,
                client=client,
                seconds=seconds / 2,
            )
    out.update(layers.wal_probe(path, [s.q for s in specs[:8]], work))
    retries = out["cluster.retries"]
    out.update(layers.load_phase(loop["spans"], loop["lag"], loop["probes"], before, after))
    out["cluster.retries"] += retries
    layers.record(res, out)
