"""Coalesced-insert durability: kill -9 after ack, recover everything.

The write-coalescing pillar's contract is that a 200 on ``insert``
means the shared group-commit fsync completed — so SIGKILLing the
server immediately after the acks and reopening the index through
ordinary WAL recovery must surface every acked vector. The server runs
as a real ``repro serve --writable`` subprocess; inserts arrive
on concurrent pipelined connections so they actually coalesce.
"""

import os
import re
import signal
import subprocess
import sys
import threading

import pytest

from repro.core.pfv import PFV
from repro.engine import connect
from repro.serve import JsonlClient

from tests.conftest import make_random_db

_SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _build_index(tmp_path, dims=3):
    from repro.gausstree.bulkload import bulk_load
    from repro.storage.layout import PageLayout

    db = make_random_db(n=40, d=dims, seed=71)
    index_path = str(tmp_path / "durable.gauss")
    tree = bulk_load(
        db.vectors, layout=PageLayout(dims=dims), sigma_rule=db.sigma_rule
    )
    tree.save(index_path)
    return index_path


@pytest.mark.skipif(sys.platform == "win32", reason="SIGKILL is POSIX-only")
def test_acked_coalesced_inserts_survive_kill_dash_nine(tmp_path):
    index_path = _build_index(tmp_path)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath(_SRC)
    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            index_path,
            "--writable",
            "--port",
            "0",
            # A wide window so the concurrent bursts really fuse into
            # shared group commits before any ack goes out.
            "--max-batch",
            "32",
            "--max-delay-ms",
            "20",
        ],
        stdout=subprocess.PIPE,
        text=True,
        env=env,
    )
    try:
        port = None
        for _ in range(50):
            line = proc.stdout.readline()
            match = re.search(r"serving http://[\d.]+:(\d+)", line)
            if match:
                port = int(match.group(1))
                break
        assert port is not None, "server never printed its address"

        n_clients, per_client = 6, 4
        barrier = threading.Barrier(n_clients)
        acked = [[] for _ in range(n_clients)]

        def one(i):
            with JsonlClient("127.0.0.1", port) as client:
                barrier.wait()
                for j in range(per_client):
                    key = 1000 + i * per_client + j
                    resp = client.insert(
                        [PFV([0.05 * i, 0.05 * j, 0.5], [0.2] * 3, key=key)]
                    )
                    if resp["status"] == 200:
                        acked[i].append(key)

        threads = [
            threading.Thread(target=one, args=(i,)) for i in range(n_clients)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        acked_keys = {k for keys in acked for k in keys}
        assert acked_keys, "no insert was acked"
        # Some inserts must actually have shared a group commit for the
        # test to mean anything.
        with JsonlClient("127.0.0.1", port) as client:
            coalescing = client.stats()["coalescing"]
        assert coalescing["write_batches"] < len(acked_keys)
    finally:
        # No drain, no checkpoint, no atexit — the crash.
        proc.kill()
        proc.wait(timeout=30)

    # WAL recovery on reopen must surface every acked vector.
    session = connect(index_path)
    try:
        recovered = {v.key for v in session.database()}
    finally:
        session.close()
    missing = acked_keys - recovered
    assert not missing, f"acked inserts lost after kill -9: {sorted(missing)}"
