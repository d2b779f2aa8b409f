"""The asyncio serving tier, exercised over real sockets.

Each test starts a real AsyncQueryServer on an ephemeral port and talks
to it with the pipelined JSONL client and/or the HTTP ServeClient. The
properties under test are the tentpole's pillars: coalescing must be
invisible in the answers (bit-identical posteriors vs a direct
session), admission control must shed with 429s instead of growing
threads or queues, a greedy client must not starve a polite one, and
shutdown must drain — answer everything admitted, then close.
"""

import json
import threading
import time
import urllib.error
import urllib.request

import pytest

from repro.cluster import RemoteError, ServeClient
from repro.core.pfv import PFV
from repro.engine import MLIQ, RankQuery, TIQ, connect
from repro.serve import (
    AdmissionConfig,
    AsyncQueryServer,
    CoalesceConfig,
    JsonlClient,
    serve_async,
)

from tests.conftest import make_random_db, make_random_query


@pytest.fixture(scope="module")
def served():
    db = make_random_db(n=60, seed=7)
    session = connect(db)
    with serve_async(session, port=0) as server:
        yield server, session, db
    session.close()


def _mliq_spec(q, k=3):
    return {"kind": "mliq", "mu": list(q.mu), "sigma": list(q.sigma), "k": k}


class TestProtocols:
    def test_jsonl_roundtrip_matches_direct_session(self, served):
        server, session, _ = served
        host, port = server.address
        q = make_random_query(seed=11)
        direct = session.execute_many([MLIQ(q, 4), TIQ(q, 0.05)])
        with JsonlClient(host, port) as client:
            resp = client.query([MLIQ(q, 4), TIQ(q, 0.05)])
        assert resp["status"] == 200
        assert resp["n_queries"] == 2
        for wire_matches, direct_matches in zip(resp["results"], direct):
            assert [m["key"] for m in wire_matches] == [
                m.key for m in direct_matches
            ]
            for wm, dm in zip(wire_matches, direct_matches):
                assert wm["probability"] == dm.probability

    def test_pipelined_responses_echo_ids(self, served):
        server, _, _ = served
        host, port = server.address
        q = make_random_query(seed=12)
        with JsonlClient(host, port) as client:
            rids = [
                client.send("query", queries=[_mliq_spec(q, k)])
                for k in range(1, 9)
            ]
            # Collect in reverse: recv_for must demux out-of-order.
            for k, rid in reversed(list(enumerate(rids, start=1))):
                resp = client.recv_for(rid)
                assert resp["id"] == rid
                assert resp["status"] == 200
                assert len(resp["results"][0]) == k

    def test_http_shim_serves_serveclient_unchanged(self, served):
        server, session, _ = served
        q = make_random_query(seed=13)
        client = ServeClient(server.url)
        answer = client.query([MLIQ(q, 3), RankQuery(q, 2)])
        direct = session.execute_many([MLIQ(q, 3), RankQuery(q, 2)])
        assert answer.keys() == [[m.key for m in ms] for ms in direct]
        health = client.healthz()
        assert health["serving"] == "async"
        stats = client.stats()
        assert "admission" in stats and "coalescing" in stats

    def test_http_errors_are_structured(self, served):
        server, _, _ = served
        url = server.url
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(url + "/nope")
        assert info.value.code == 404
        assert "error" in json.loads(info.value.read().decode())
        # A write spec on /query points the caller at /insert.
        request = urllib.request.Request(
            url + "/query",
            data=json.dumps(
                {"queries": [{"kind": "insert", "mu": [0.1], "sigma": [0.2]}]}
            ).encode(),
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as info:
            urllib.request.urlopen(request)
        assert info.value.code == 400

    def test_read_only_disk_server_refuses_insert_with_403(self, tmp_path):
        from repro.gausstree.bulkload import bulk_load
        from repro.storage.layout import PageLayout

        db = make_random_db(n=30, seed=8)
        index_path = str(tmp_path / "ro.gauss")
        tree = bulk_load(
            db.vectors, layout=PageLayout(dims=3), sigma_rule=db.sigma_rule
        )
        tree.save(index_path)
        session = connect(index_path)  # read-only
        with serve_async(session, port=0) as server:
            request = urllib.request.Request(
                server.url + "/insert",
                data=json.dumps(
                    {"vectors": [{"mu": [0.1] * 3, "sigma": [0.2] * 3}]}
                ).encode(),
                headers={"Content-Type": "application/json"},
            )
            with pytest.raises(urllib.error.HTTPError) as info:
                urllib.request.urlopen(request)
            assert info.value.code == 403
            assert "read-only" in json.loads(info.value.read().decode())["error"]
        session.close()

    def test_jsonl_rejects_malformed_lines_without_dying(self, served):
        server, _, _ = served
        host, port = server.address
        with JsonlClient(host, port) as client:
            client._file.write(b'{"op": "no-such-op", "id": 1}\n')
            client._file.flush()
            resp = client.recv()
            assert resp["status"] == 400 and "unknown op" in resp["error"]
            # The connection survives and still serves.
            q = make_random_query(seed=14)
            assert client.query([MLIQ(q, 1)])["status"] == 200


    def test_jsonl_infinite_k_answers_400_and_keeps_serving(self, served):
        server, _, _ = served
        host, port = server.address
        spec = _mliq_spec(make_random_query(seed=15), k=float("inf"))
        with JsonlClient(host, port) as client:
            resp = client.request("query", queries=[spec])
            assert resp["status"] == 400
            assert '"k" must be an integer' in resp["error"]
            assert client.request("healthz")["status"] == 200
        assert ServeClient(server.url).healthz()["status"] == "ok"


class TestCoalescing:
    def test_concurrent_singletons_match_client_batched_posteriors(self):
        """The coalescing pillar: N clients' singleton queries fused
        server-side must answer bit-for-bit what one client-side batch
        answers (same execute_many entry point underneath)."""
        db = make_random_db(n=80, seed=21)
        session = connect(db)
        queries = [make_random_query(seed=100 + i) for i in range(12)]
        batched = session.execute_many([MLIQ(q, 3) for q in queries])
        results = [None] * len(queries)
        # A long window so near-simultaneous singletons surely fuse.
        with serve_async(
            session,
            port=0,
            coalesce=CoalesceConfig(max_batch=32, max_delay_seconds=0.05),
        ) as server:
            host, port = server.address
            barrier = threading.Barrier(len(queries))

            def one(i):
                with JsonlClient(host, port) as client:
                    barrier.wait()
                    results[i] = client.query([MLIQ(queries[i], 3)])

            threads = [
                threading.Thread(target=one, args=(i,))
                for i in range(len(queries))
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            stats_client = JsonlClient(host, port)
            coalescing = stats_client.stats()["coalescing"]
            stats_client.close()
        session.close()
        for i, direct_matches in enumerate(batched):
            resp = results[i]
            assert resp["status"] == 200
            assert [m["key"] for m in resp["results"][0]] == [
                m.key for m in direct_matches
            ]
            for wm, dm in zip(resp["results"][0], direct_matches):
                assert wm["probability"] == dm.probability  # bit-identical
                assert wm["log_density"] == dm.log_density
        # And the server really did fuse: fewer batches than requests.
        assert coalescing["read_batches"] < len(queries)
        assert coalescing["coalesced_reads"] > 0

    def test_coalesced_response_reports_batch_size(self):
        db = make_random_db(n=40, seed=22)
        session = connect(db)
        with serve_async(
            session,
            port=0,
            coalesce=CoalesceConfig(max_batch=8, max_delay_seconds=0.05),
        ) as server:
            host, port = server.address
            q = make_random_query(seed=23)
            with JsonlClient(host, port) as a, JsonlClient(host, port) as b:
                ra = a.send("query", queries=[_mliq_spec(q)])
                rb = b.send("query", queries=[_mliq_spec(q)])
                answers = [a.recv_for(ra), b.recv_for(rb)]
            assert {resp["coalesced"] for resp in answers} <= {1, 2}
        session.close()


class TestBackpressure:
    def test_overload_sheds_with_429_and_bounded_threads(self):
        db = make_random_db(n=400, d=6, seed=31)
        session = connect(db)
        before_threads = threading.active_count()
        with serve_async(
            session,
            port=0,
            admission=AdmissionConfig(max_queue=8, max_queue_per_client=8),
            coalesce=CoalesceConfig(max_batch=1, max_delay_seconds=0.0),
        ) as server:
            host, port = server.address
            q = make_random_query(d=6, seed=32)
            spec = _mliq_spec(q, 5)
            with JsonlClient(host, port) as client:
                rids = [
                    client.send("query", queries=[spec]) for _ in range(150)
                ]
                during_threads = threading.active_count()
                statuses = [client.recv_for(rid)["status"] for rid in rids]
            # Every request is answered: accepted ones with 200, shed
            # ones with 429 — never dropped, never an error.
            assert statuses.count(200) + statuses.count(429) == 150
            assert statuses.count(429) > 0
            # One event loop + a fixed executor, not a thread per
            # request: the thread count stays O(1).
            assert during_threads - before_threads <= 4
            with JsonlClient(host, port) as client:
                admission = client.stats()["admission"]
            assert admission["rejected"] == statuses.count(429)
            assert admission["peak_pending"] <= 8
        session.close()

    def test_429_carries_retry_after(self):
        db = make_random_db(n=200, d=6, seed=33)
        session = connect(db)
        with serve_async(
            session,
            port=0,
            admission=AdmissionConfig(
                max_queue=2, max_queue_per_client=2, retry_after_seconds=0.25
            ),
            coalesce=CoalesceConfig(max_batch=1, max_delay_seconds=0.0),
        ) as server:
            host, port = server.address
            q = make_random_query(d=6, seed=34)
            with JsonlClient(host, port) as client:
                rids = [
                    client.send("query", queries=[_mliq_spec(q)])
                    for _ in range(40)
                ]
                rejected = [
                    resp
                    for resp in (client.recv_for(rid) for rid in rids)
                    if resp["status"] == 429
                ]
            assert rejected
            assert all(resp["retry_after"] == 0.25 for resp in rejected)
        session.close()

    def test_backpressure_is_not_counted_as_an_error(self):
        db = make_random_db(n=200, d=6, seed=35)
        session = connect(db)
        with serve_async(
            session,
            port=0,
            admission=AdmissionConfig(max_queue=2, max_queue_per_client=2),
            coalesce=CoalesceConfig(max_batch=1, max_delay_seconds=0.0),
        ) as server:
            host, port = server.address
            q = make_random_query(d=6, seed=36)
            with JsonlClient(host, port) as client:
                rids = [
                    client.send("query", queries=[_mliq_spec(q)])
                    for _ in range(40)
                ]
                statuses = [client.recv_for(rid)["status"] for rid in rids]
                stats = client.stats()
            assert statuses.count(429) > 0
            assert stats["errors"] == 0  # shedding is service, not failure
        session.close()


class TestFairnessUnderLoad:
    def test_greedy_client_does_not_starve_a_polite_one(self):
        """A client pipelining a hundred requests shares the server
        round-robin with one sending a request at a time: the polite
        client's small workload finishes while the greedy one still has
        a deep backlog, instead of queueing behind all of it."""
        db = make_random_db(n=2000, d=8, seed=41)
        session = connect(db)
        with serve_async(
            session,
            port=0,
            admission=AdmissionConfig(max_queue=512, max_queue_per_client=256),
            coalesce=CoalesceConfig(max_batch=4, max_delay_seconds=0.0),
        ) as server:
            host, port = server.address
            q = make_random_query(d=8, seed=42)
            spec = _mliq_spec(q, 5)
            greedy = JsonlClient(host, port)
            greedy_rids = [
                greedy.send("query", queries=[spec]) for _ in range(200)
            ]
            polite_done = []

            def polite():
                with JsonlClient(host, port) as client:
                    for _ in range(5):
                        resp = client.request("query", queries=[spec])
                        assert resp["status"] == 200
                polite_done.append(time.perf_counter())

            thread = threading.Thread(target=polite)
            thread.start()
            greedy_times = []
            greedy_statuses = []
            for rid in greedy_rids:
                greedy_statuses.append(greedy.recv_for(rid)["status"])
                greedy_times.append(time.perf_counter())
            thread.join()
            greedy.close()
        session.close()
        assert all(s in (200, 429) for s in greedy_statuses)
        # Round-robin dequeue: the polite client's whole workload (5
        # sequential requests) finishes well inside the greedy backlog
        # (200 pipelined) — before its last response, not behind it.
        # Without fairness it would queue behind ~all 200.
        assert polite_done and polite_done[0] <= greedy_times[-1]


class TestDrainAndWrites:
    def test_graceful_drain_answers_everything_admitted(self):
        db = make_random_db(n=300, d=6, seed=51)
        session = connect(db)
        server = serve_async(
            session,
            port=0,
            coalesce=CoalesceConfig(max_batch=4, max_delay_seconds=0.0),
        )
        host, port = server.address
        q = make_random_query(d=6, seed=52)
        client = JsonlClient(host, port)
        rids = [
            client.send("query", queries=[_mliq_spec(q, 5)])
            for _ in range(20)
        ]
        # Wait for the first answer so the backlog is mid-flight. That
        # alone does not prove the server *read* the other 19 lines off
        # the socket (they could still be in the kernel buffer and get
        # 503 once draining starts); a stats round-trip on the same
        # connection is a barrier — lines are processed in order, so by
        # the time it answers, everything before it was admitted.
        first = client.recv_for(rids[0])
        assert first["status"] == 200
        snap = client.request("stats")
        assert snap["admission"]["admitted"] >= 20, snap["admission"]
        shutdown = threading.Thread(target=server.shutdown)
        shutdown.start()
        statuses = [client.recv_for(rid)["status"] for rid in rids[1:]]
        shutdown.join()
        # Admitted requests all got real answers, not connection resets.
        assert all(s == 200 for s in statuses)
        client.close()
        session.close()

    def test_draining_server_answers_503(self):
        db = make_random_db(n=40, seed=53)
        session = connect(db)
        server = serve_async(session, port=0)
        host, port = server.address
        client = JsonlClient(host, port)
        assert client.healthz()["status"] == 200
        # Flip the queue to draining directly (on the loop) so we can
        # observe the 503 window before the listener closes.
        server._loop.call_soon_threadsafe(server._admission.begin_drain)
        time.sleep(0.05)
        q = make_random_query(seed=54)
        resp = client.request("query", queries=[_mliq_spec(q)])
        assert resp["status"] == 503
        assert resp["retry_after"] > 0
        client.close()
        server.shutdown()
        session.close()

    def test_concurrent_inserts_share_one_group_commit(self, tmp_path):
        from repro.gausstree.bulkload import bulk_load
        from repro.storage.layout import PageLayout

        db = make_random_db(n=50, seed=55)
        index_path = str(tmp_path / "db.gauss")
        tree = bulk_load(
            db.vectors, layout=PageLayout(dims=3), sigma_rule=db.sigma_rule
        )
        tree.save(index_path)
        session = connect(index_path, writable=True)
        with serve_async(
            session,
            port=0,
            coalesce=CoalesceConfig(max_batch=16, max_delay_seconds=0.05),
        ) as server:
            host, port = server.address
            barrier = threading.Barrier(6)
            acks = [None] * 6

            def one(i):
                with JsonlClient(host, port) as client:
                    barrier.wait()
                    acks[i] = client.insert(
                        [PFV([0.1 * i] * 3, [0.2] * 3, key=900 + i)]
                    )

            threads = [
                threading.Thread(target=one, args=(i,)) for i in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with JsonlClient(host, port) as client:
                coalescing = client.stats()["coalescing"]
        assert all(a["status"] == 200 and a["inserted"] == 1 for a in acks)
        # Fewer WAL transactions than clients: inserts fused into
        # shared group commits.
        assert coalescing["write_batches"] < 6
        assert coalescing["coalesced_inserts"] > 0
        assert len(session) == 56
        session.close()
        # Every acked key is durably in the index.
        reopened = connect(index_path)
        keys = {v.key for v in reopened.database()}
        assert {900 + i for i in range(6)} <= keys
        reopened.close()


class TestServeClientBackoff:
    def test_429_retries_until_served(self):
        """ServeClient rides out backpressure: a tiny queue rejects
        most of a burst, but with backoff every request eventually
        lands — no RemoteError surfaces to the caller."""
        db = make_random_db(n=300, d=6, seed=61)
        session = connect(db)
        with serve_async(
            session,
            port=0,
            admission=AdmissionConfig(
                max_queue=2, max_queue_per_client=2, retry_after_seconds=0.02
            ),
            coalesce=CoalesceConfig(max_batch=1, max_delay_seconds=0.0),
        ) as server:
            client = ServeClient(server.url, retry_backoff=0.02)
            q = make_random_query(d=6, seed=62)

            errors = []
            def hammer():
                try:
                    for _ in range(6):
                        client.query(MLIQ(q, 5))
                except RemoteError as exc:
                    errors.append(exc)

            threads = [threading.Thread(target=hammer) for _ in range(6)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert errors == []
            rejected = client.stats()["admission"]["rejected"]
        session.close()
        assert rejected > 0  # backpressure really happened; retries hid it

    def test_opt_out_surfaces_429_as_remote_error(self):
        db = make_random_db(n=300, d=6, seed=63)
        session = connect(db)
        with serve_async(
            session,
            port=0,
            admission=AdmissionConfig(max_queue=1, max_queue_per_client=1),
            coalesce=CoalesceConfig(max_batch=1, max_delay_seconds=0.0),
        ) as server:
            client = ServeClient(server.url, retry_busy=False)
            q = make_random_query(d=6, seed=64)
            statuses = []

            def hammer():
                try:
                    for _ in range(10):
                        client.query(MLIQ(q, 5))
                        statuses.append(200)
                except RemoteError as exc:
                    statuses.append(exc.status)

            threads = [threading.Thread(target=hammer) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        session.close()
        assert 429 in statuses
