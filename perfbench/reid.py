"""Workload ``reid-churn``: online re-identification with writes.

A writable 2-shard deployment (``build_shards``, hash placement, one
replica per shard so every commit is WAL-shipped, fsync on) is served
by ``serve_async`` in a child process. It starts with a full window of
2,000 live tracks (d = 8, about 400 identities). Two camera streams,
each one thread with its own JSONL connection, run a closed loop: for
each observation, identify it with ``ConsensusTopK(obs, 3)``, insert
it as a new track, then delete the stream's oldest track.

After the loop a seeded sample of identifications is checked against
the scan over the expected live set, the server is killed with SIGKILL,
and the reopened deployment must hold exactly the seed tracks plus
every acknowledged insert minus every acknowledged delete.
"""

from __future__ import annotations

import os
import threading
import time

import numpy as np

from common import (
    BenchError,
    Result,
    ServerProcess,
    check_answer,
    dir_bytes,
    host_probe_ms,
    iter_spans,
    make_workdir,
    matches_of_wire,
    median,
    normalize_key,
    metrics_diff,
    pct,
    remove_workdir,
)
import layers

DIMS = 8
IDENTITIES = 400
WINDOW = 2000
STREAMS = 2
K = 3
WARMUP_QUERIES = 8
CHECKED = 24
REPLAY_QUERIES = 16
#: Observations generated per stream; a run uses a prefix of them.
STREAM_LENGTH = 4000


def make_observations(rng, centers, n: int):
    """Noisy observations of random identities, each with its own
    per-dimension sigma (the generator of ``benchmarks/bench_reid.py``)."""
    from repro import PFV

    out = []
    for _ in range(n):
        ident = int(rng.integers(len(centers)))
        sigma = rng.uniform(0.03, 0.12, DIMS)
        out.append(PFV(centers[ident] + rng.normal(0.0, sigma), sigma))
    return out


def make_inputs(seed: int):
    """Seed window, the per-stream observation streams, and the
    warm-up, check and replay observations, all from ``seed``."""
    from repro import PFV

    rng = np.random.default_rng(seed)
    centers = rng.uniform(0.0, 1.0, (IDENTITIES, DIMS))
    seed_obs = make_observations(rng, centers, WINDOW)
    windows = [[] for _ in range(STREAMS)]
    for i, obs in enumerate(seed_obs):
        windows[i % STREAMS].append(PFV(obs.mu, obs.sigma, key=(f"cam{i % STREAMS}", i)))
    streams = [make_observations(rng, centers, STREAM_LENGTH) for _ in range(STREAMS)]
    probes = make_observations(rng, centers, WARMUP_QUERIES + CHECKED + REPLAY_QUERIES)
    return windows, streams, probes


def start_deployment(windows, prefix: str, warm) -> tuple[ServerProcess, str]:
    """Build the seeded 2-shard deployment, start the writable child
    server and warm it up: the set-up that ``setup_s`` times."""
    from repro import ConsensusTopK
    from repro.cluster.partition import build_shards
    from repro.core.database import PFVDatabase
    from repro.serve import JsonlClient

    tracks = [t for w in windows for t in w]
    manifest = build_shards(PFVDatabase(tracks), 2, prefix, policy="hash", replicas=1)
    server = ServerProcess("--manifest", manifest.source_path, "--writable")
    try:
        with JsonlClient(*server.address) as client:
            for obs in warm:
                if client.query([ConsensusTopK(obs, K)]).get("status") != 200:
                    raise BenchError("warm-up identify failed")
    except BaseException:
        server.kill()
        raise
    return server, manifest.source_path


class Stream(threading.Thread):
    """One camera: a closed identify -> insert -> delete-oldest loop on
    its own connection. Keeps its own counts; merged after join."""

    def __init__(self, index, address, window, observations, deadline, traced):
        super().__init__(name=f"cam{index}", daemon=True)
        self.index = index
        self.address = address
        self.window = list(window)
        self.observations = observations
        self.deadline = deadline
        self.traced = traced
        self.identify, self.write, self.lag, self.traces = [], [], [], []
        self.inserted, self.deleted = [], []
        self.attempted = 0
        self.errors: list[str] = []
        self.crash: BaseException | None = None

    def run(self) -> None:
        from repro import PFV, ConsensusTopK
        from repro.serve import JsonlClient

        try:
            with JsonlClient(*self.address, timeout=120.0) as client:
                done = time.perf_counter()
                for serial, obs in enumerate(self.observations):
                    if time.perf_counter() >= self.deadline:
                        break
                    t0 = time.perf_counter()
                    self.lag.append(t0 - done)
                    self.attempted += 1
                    resp = client.query([ConsensusTopK(obs, K)], trace=self.traced)
                    t1 = time.perf_counter()
                    if resp.get("status") != 200 or len(resp["results"][0]) != K:
                        self.errors.append(f"identify: {resp.get('status')}")
                        done = time.perf_counter()
                        continue
                    self.identify.append(t1 - t0)
                    track = PFV(obs.mu, obs.sigma, key=(f"cam{self.index}", WINDOW + serial))
                    oldest = self.window[0]
                    ins = client.insert([track], trace=self.traced)
                    if ins.get("status") != 200 or ins.get("inserted") != 1:
                        self.errors.append(f"insert: {ins}")
                        done = time.perf_counter()
                        continue
                    self.inserted.append(track)
                    self.window.append(track)
                    dele = client.delete([oldest], trace=self.traced)
                    done = time.perf_counter()
                    if dele.get("status") != 200 or dele.get("deleted") != 1:
                        self.errors.append(f"delete: {dele}")
                        continue
                    self.deleted.append(oldest)
                    self.window.pop(0)
                    self.write.append(done - t1)
                    if self.traced:
                        self.traces += [r["trace"] for r in (resp, ins, dele)]
        except BaseException as exc:  # reported by the joining thread
            self.crash = exc


def churn(res, address, windows, streams, seconds, traced) -> dict:
    deadline = time.perf_counter() + seconds
    workers = [
        Stream(i, address, windows[i], streams[i], deadline, traced)
        for i in range(STREAMS)
    ]
    probes = [host_probe_ms()]
    started = time.perf_counter()
    for w in workers:
        w.start()
    for w in workers:
        w.join(timeout=seconds + 120)
        if w.is_alive():
            raise BenchError(f"stream {w.name} did not finish")
        if w.crash is not None:
            raise BenchError(f"stream {w.name} crashed: {w.crash!r}")
    elapsed = time.perf_counter() - started
    probes.append(host_probe_ms())
    merged = {"identify": [], "write": [], "lag": [], "traces": [],
              "inserted": [], "deleted": []}
    for w in workers:
        res.attempted += w.attempted
        for error in w.errors:
            res.fail(f"{w.name} {error}")
        for key in merged:
            merged[key] += getattr(w, key)
        windows[w.index] = w.window
    merged["observations"] = len(merged["write"])
    merged["elapsed"] = elapsed
    merged["probes"] = probes
    return merged


def check_identify(res, client, live, probes) -> None:
    """Identify ``probes`` on the quiescent deployment and compare with
    the scan over the expected live tracks."""
    from repro import ConsensusTopK
    from repro.core.database import PFVDatabase

    db = PFVDatabase(live)
    keys = [v.key for v in live]
    for i, obs in enumerate(probes):
        spec = ConsensusTopK(obs, K)
        resp = client.query([spec])
        res.attempted += 1
        if resp.get("status") != 200:
            res.fail(f"check identify {i}: status {resp.get('status')}")
            continue
        problem = check_answer(db, keys, spec, matches_of_wire(resp["results"][0]))
        if problem:
            res.fail(f"check identify {i}: {problem}", wrong=True)
    res.note(f"identifications checked against the scan: {len(probes)}")


def check_durable(res, manifest_path, live) -> None:
    """Reopen the killed deployment (WAL recovery) and compare its
    contents with the expected live set."""
    from repro import connect

    with connect(manifest_path, backend="sharded", writable=True) as session:
        stored = {normalize_key(v.key) for v in session.database()}
    expected = {v.key for v in live}
    lost, extra = expected - stored, stored - expected
    res.attempted += 1
    if lost or extra:
        res.fail(
            f"after kill and reopen: {len(lost)} acknowledged inserts lost, "
            f"{len(extra)} acknowledged deletes back",
            wrong=True,
        )
    res.note(
        f"durability: {len(stored)} tracks after kill -9 and reopen, "
        f"{len(expected)} expected from the acknowledgements"
    )


def run(seed: int, seconds: float, trace: bool, repeats: int) -> Result:
    from repro.serve import JsonlClient

    res = Result()
    windows, streams, probes = make_inputs(seed)
    warm = probes[:WARMUP_QUERIES]
    checks = probes[WARMUP_QUERIES:WARMUP_QUERIES + CHECKED]
    replay_obs = probes[WARMUP_QUERIES + CHECKED:]
    work = make_workdir()
    server = None
    try:
        setups = []
        for rep in range(repeats):
            if server is not None:
                server.stop()
            prefix = os.path.join(work, f"rep{rep}", "reid")
            started = time.perf_counter()
            server, manifest_path = start_deployment(windows, prefix, warm)
            setups.append(time.perf_counter() - started)
        deploy_dir = os.path.dirname(manifest_path)
        with JsonlClient(*server.address) as client:
            before = layers.scrape(client)
            wal_before = _wal_bytes(deploy_dir)
            loop = churn(res, server.address, windows, streams,
                         seconds / 2 if trace else seconds, trace)
            after = layers.scrape(client)
            wal_after = _wal_bytes(deploy_dir)
            live = [t for w in windows for t in w]
            check_identify(res, client, live, checks)
            if trace:
                out = _replay(live, manifest_path, client, replay_obs, seconds / 2, work)
        rss = server.peak_rss_mb()
        server.kill()
        check_durable(res, manifest_path, live)
        # After recovery and a clean close the WAL is folded into the
        # index files, so the figure does not grow with the run's writes.
        stored = dir_bytes(deploy_dir)
        if trace:
            writes = 2 * loop["observations"]
            retries = out["cluster.retries"]
            out.update(_load_layers(loop, before, after, writes, wal_after - wal_before))
            out["cluster.retries"] += retries
            layers.record(res, out)
        else:
            _report(res, loop)
            res.metric("setup_s", median(setups), "s", len(setups))
            res.metric("bytes_per_object", stored / len(live), "B", 1)
            res.metric("peak_rss_mb", rss, "MB", 1)
        res.note(
            f"deployment {stored} B on disk after recovery (shards, replicas, WALs) for "
            f"{len(live)} live tracks"
        )
    finally:
        if server is not None:
            server.kill()
        remove_workdir(work)
    return res


def _wal_bytes(deploy_dir: str) -> int:
    return sum(
        os.path.getsize(os.path.join(deploy_dir, name))
        for name in os.listdir(deploy_dir)
        if name.endswith(".wal")
    )


def _report(res, loop) -> None:
    ms = 1e3
    ident, write = loop["identify"], loop["write"]
    res.metric("query_p50_ms", median(ident) * ms, "ms", len(ident))
    res.note(f"query_p90_ms {pct(ident, 90) * ms:.3f} ms (n={len(ident)})")
    res.metric("throughput_per_s", loop["observations"] / loop["elapsed"], "1/s",
               loop["observations"])
    for q in (50, 99):
        res.note(f"identify_p{q}_ms {pct(ident, q) * ms:.3f} ms (n={len(ident)})")
    for q in (50, 95, 99):
        res.note(f"write_p{q}_ms {pct(write, q) * ms:.3f} ms (n={len(write)})")
    res.note(f"churn_per_s {loop['observations'] / loop['elapsed']:.3f} obs/s")
    res.note(f"bench.lag_p99_ms {pct(loop['lag'], 99) * ms:.4f} ms")
    res.note(f"bench.host_probe_ms {median(loop['probes']):.3f} ms")


def _replay(live, manifest_path, client, replay_obs, seconds, work) -> dict:
    from repro import ConsensusTopK, connect
    from repro.core.database import PFVDatabase
    from repro.gausstree import bulk_load
    from repro.storage.layout import PageLayout

    db = PFVDatabase(live)
    path = os.path.join(work, "reid-window.gauss")
    bulk_load(db.vectors, layout=PageLayout(dims=DIMS), sigma_rule=db.sigma_rule).save(path)
    with connect(manifest_path, backend="sharded") as deployed:
        return layers.replay(
            db=db,
            specs=[ConsensusTopK(obs, K) for obs in replay_obs],
            open_disk=lambda: connect(path),
            deployed=deployed,
            sharded=deployed,
            client=client,
            seconds=seconds,
        )


def _load_layers(loop, before, after, writes, wal_bytes) -> dict:
    """Layer metrics of the traced churn: serving, WAL and cluster."""
    out = layers.load_phase(loop["traces"], loop["lag"], loop["probes"], before, after)
    commits = [
        s["dur"] for t in loop["traces"] for s in iter_spans(t["spans"])
        if s["name"] == "wal.commit"
    ]
    fanout_self, shard_times = [], []
    for t in loop["traces"]:
        layers.cluster_times(t, fanout_self, shard_times)
    fsyncs = metrics_diff(before[0], after[0], "repro_wal_fsync_total")
    out.update({
        "storage.wal_commit_p50_ms": median(commits) * 1e3,
        "storage.wal_commit_p99_ms": pct(commits, 99) * 1e3,
        "storage.wal_bytes_per_write": wal_bytes / writes,
        "storage.fsyncs_per_write": fsyncs / writes,
        "cluster.shard_ms": median(shard_times) * 1e3,
        "cluster.fanout_self_ms": median(fanout_self) * 1e3,
    })
    return out
