"""Workload ``ds1-identify``: singleton identification on data set 1,
larger than the page cache.

In-process closed loop, one caller. The data set 1 substitute
(``dataset1()``, 10,987 x 27) is bulk-loaded and saved as a format v3
index and opened with ``connect(path, backend="disk", buffer=...)``
holding 20% of the index's pages, so buffer misses are real file reads.
Queries follow the paper's re-observation protocol
(``identification_workload``) and rotate MLIQ k=1, MLIQ k=10, TIQ 0.1
and ConsensusTopK k=3.
"""

from __future__ import annotations

import os
import time

from common import (
    Result,
    ServerProcess,
    check_answer,
    host_probe_ms,
    make_workdir,
    matches_of_result,
    median,
    own_peak_rss_mb,
    pct,
    remove_workdir,
)
import layers

#: Share of the index's pages the buffer holds.
BUFFER_SHARE = 0.2
WARMUP_QUERIES = 8
#: Answers checked against the scan per run (seeded sample).
CHECKED = 48
CHECK_STRIDE = 3
REPLAY_QUERIES = 8


def make_specs(db, n: int, seed: int):
    from repro.data.workload import identification_workload

    return [
        layers.all_kinds(item.q)[i % 4]
        for i, item in enumerate(identification_workload(db, n, seed=seed))
    ]


def build_and_open(db, path: str, warm_specs):
    """Bulk load, save, open with the 20% buffer and warm up: the
    set-up that ``setup_s`` times. Returns ``(session, buffer_pages)``."""
    from repro import connect
    from repro.gausstree import bulk_load
    from repro.storage.buffer import BufferManager
    from repro.storage.layout import PageLayout

    layout = PageLayout(dims=db.dims)
    tree = bulk_load(db.vectors, layout=layout, sigma_rule=db.sigma_rule)
    tree.save(path)
    del tree
    pages = max(1, int(os.path.getsize(path) // layout.page_size * BUFFER_SHARE))
    session = connect(path, backend="disk", buffer=BufferManager(pages))
    for spec in warm_specs:
        session.execute(spec)
    return session, pages


def run(seed: int, seconds: float, trace: bool, repeats: int) -> Result:
    from repro.eval.figures import dataset1

    res = Result()
    db = dataset1()
    keys = [v.key for v in db]
    warm = make_specs(db, WARMUP_QUERIES, seed + 1_000_003)
    specs = make_specs(db, 2000, seed)
    work = make_workdir()
    try:
        setups = []
        session = None
        for rep in range(repeats):
            if session is not None:
                session.close()
            path = os.path.join(work, f"ds1-{rep}.gauss")
            started = time.perf_counter()
            session, buffer_pages = build_and_open(db, path, warm)
            setups.append(time.perf_counter() - started)
        try:
            loop_seconds = seconds / 2 if trace else seconds
            loop = _closed_loop(res, db, keys, session, specs, loop_seconds, seed, trace)
            if trace:
                _traced(res, db, path, buffer_pages, session, warm, specs, seconds / 2, work, loop)
            else:
                _report(res, loop)
                res.metric("setup_s", median(setups), "s", len(setups))
                res.metric(
                    "bytes_per_object", os.path.getsize(path) / len(db), "B", 1
                )
                res.metric("peak_rss_mb", own_peak_rss_mb(), "MB", 1)
        finally:
            session.close()
        res.note(
            f"index {os.path.getsize(path)} B, {len(db)} objects, buffer "
            f"{buffer_pages} pages ({BUFFER_SHARE:.0%} of the index)"
        )
    finally:
        remove_workdir(work)
    return res


def _closed_loop(res, db, keys, session, specs, seconds, seed, traced) -> dict:
    """One caller issuing singleton queries back to back; a seeded
    sample of the answers is checked against the scan afterwards.
    ``lag`` is the generator's own time between one answer and the
    next request."""
    from repro.obs.trace import Trace, tracing

    # Every third query from a seeded offset: all four kinds, any length.
    offset = seed % CHECK_STRIDE
    answers = {}
    lat, kinds, lag = [], [], []
    probes = [host_probe_ms()]
    started = time.perf_counter()
    deadline = started + seconds
    done = started
    i = 0
    while time.perf_counter() < deadline:
        spec = specs[i % len(specs)]
        t = time.perf_counter()
        lag.append(t - done)
        try:
            if traced:
                with tracing(Trace()):
                    rs = session.execute(spec)
            else:
                rs = session.execute(spec)
        except Exception as exc:  # a failed query counts, the loop goes on
            res.fail(f"query {i}: {exc!r}")
            rs = None
        done = time.perf_counter()
        lat.append(done - t)
        kinds.append(layers.kind_name(spec))
        if rs is not None and i % CHECK_STRIDE == offset and len(answers) < CHECKED:
            answers[i] = matches_of_result(rs.matches)
        i += 1
        if i % 200 == 0:
            probes.append(host_probe_ms())
            done = time.perf_counter()
    elapsed = time.perf_counter() - started
    probes.append(host_probe_ms())
    res.attempted += i
    for j, got in answers.items():
        problem = check_answer(db, keys, specs[j], got)
        if problem:
            res.fail(f"query {j}: {problem}", wrong=True)
    res.note(f"answers checked against the scan: {len(answers)}")
    return {"lat": lat, "kinds": kinds, "lag": lag[1:], "elapsed": elapsed,
            "probes": probes}


def _report(res, loop) -> None:
    lat, kinds = loop["lat"], loop["kinds"]
    # A rotation is four consecutive queries, one of each kind; its mean
    # is one sample of the per-query latency (the kinds' latencies differ
    # by up to 10x, so a plain median would fall between two kinds).
    rotations = [sum(lat[j : j + 4]) / 4 for j in range(0, len(lat) - 3, 4)]
    ms = 1e3
    res.metric("query_p50_ms", median(rotations) * ms, "ms", len(rotations))
    res.note(f"query_p90_ms {pct(lat, 90) * ms:.3f} ms (n={len(lat)})")
    res.metric("throughput_per_s", len(lat) / loop["elapsed"], "1/s", len(lat))
    res.note(f"query_p99_ms {pct(lat, 99) * ms:.3f} ms (n={len(lat)})")
    for kind in ("mliq1", "mliq10", "tiq", "consensus"):
        ks = [t for t, k in zip(lat, kinds) if k == kind]
        res.note(f"{kind}_p50_ms {median(ks) * ms:.3f} ms (n={len(ks)})")
    res.note(f"bench.lag_p99_ms {pct(loop['lag'], 99) * ms:.4f} ms")
    res.note(
        f"bench.host_probe_ms {median(loop['probes']):.3f} ms "
        f"(n={len(loop['probes'])})"
    )


def _traced(res, db, path, buffer_pages, session, warm, specs, seconds, work, loop) -> None:
    from repro import connect
    from repro.cluster.partition import build_shards
    from repro.serve import JsonlClient
    from repro.storage.buffer import BufferManager

    def open_disk():
        disk = connect(path, backend="disk", buffer=BufferManager(buffer_pages))
        for spec in warm:
            disk.execute(spec)
        return disk

    manifest = build_shards(db, 2, os.path.join(work, "ds1-shards"), policy="hash")
    server = ServerProcess("--index", path, "--buffer-pages", str(buffer_pages))
    try:
        with connect(manifest.source_path, backend="sharded") as sharded, \
                JsonlClient(*server.address) as client:
            out = layers.replay(
                db=db,
                specs=specs[:REPLAY_QUERIES],
                open_disk=open_disk,
                deployed=session,
                sharded=sharded,
                client=client,
                seconds=seconds,
            )
    finally:
        server.stop()
    out.update(layers.wal_probe(path, [s.q for s in specs[:8]], work))
    out["bench.lag_p99_ms"] = pct(loop["lag"], 99) * 1e3
    out["bench.host_probe_ms"] = median(loop["probes"])
    layers.record(res, out)
