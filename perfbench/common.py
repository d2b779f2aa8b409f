"""Shared helpers of the benchmark: statistics, host probe, the child
server process, a multiplexed JSONL connection, span arithmetic and the
answer check against the sequential scan.

Everything here drives the program through its public surfaces only:
``repro.connect`` and the engine specs, ``repro.core.scan.scan_posteriors``,
``repro.serve.serve_async`` (inside the child, see ``server.py``),
``repro.serve.JsonlClient``, the wire codec of ``repro.cluster.wire`` and
the ``/metrics`` and ``/stats`` payloads.
"""

from __future__ import annotations

import json
import math
import os
import re
import resource
import select
import shutil
import socket
import subprocess
import sys
import tempfile
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
#: Scratch space for index files; inside the checkout, removed after a run.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")

#: Posterior agreement with the scan (see README.md, "Correctness gates").
POSTERIOR_TOL = 1e-6
#: Relative agreement of per-object log densities with the scan.
LOG_DENSITY_RTOL = 1e-9

#: Set-up is repeated this many times per run; setup_s is the median.
SETUP_REPEATS = 3


class BenchError(RuntimeError):
    """A run that cannot produce a valid result (exits non-zero)."""


# -- statistics --------------------------------------------------------------


def pct(values, q: float) -> float:
    """The ``q``-th percentile (0..100, linear interpolation); 0 when
    there are no values."""
    if len(values) == 0:
        return 0.0
    return float(np.percentile(np.asarray(values, dtype=float), q))


def median(values) -> float:
    return pct(values, 50.0)


def mean(values) -> float:
    return float(np.mean(values)) if len(values) else 0.0


def host_probe_ms() -> float:
    """Time of a fixed pure-Python reference loop, in ms. Recorded with
    every run so that host speed drift is visible beside the numbers."""
    started = time.perf_counter()
    acc = 0
    for i in range(200_000):
        acc += i * i
    return (time.perf_counter() - started) * 1e3


def cpu_ticks() -> tuple[int, int]:
    """``(steal, total)`` CPU ticks of the host so far, from
    ``/proc/stat``: the time a hypervisor gave to other guests shows as
    steal, and explains latency drift that the program did not cause."""
    with open("/proc/stat") as fh:
        fields = [int(x) for x in fh.readline().split()[1:]]
    return fields[7], sum(fields)


def own_peak_rss_mb() -> float:
    """Peak RSS of this process (Linux reports ``ru_maxrss`` in KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def proc_peak_rss_mb(pid: int) -> float:
    """Peak RSS (``VmHWM``) of a live child process, from ``/proc``."""
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError(f"no VmHWM for pid {pid}")


def dir_bytes(path: str) -> int:
    """Total size of the regular files directly under ``path``."""
    return sum(
        os.path.getsize(os.path.join(path, name))
        for name in os.listdir(path)
        if os.path.isfile(os.path.join(path, name))
    )


def make_workdir() -> str:
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(prefix="run-", dir=WORK_ROOT)


def remove_workdir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)  # only when no other run uses it
    except OSError:
        pass


# -- the child server process -----------------------------------------------


class ServerProcess:
    """``server.py`` running ``serve_async`` in a child process.

    The child prints one JSON line with its port once it listens, then
    serves until a ``stop`` line arrives on its stdin (graceful drain
    and close) or it is killed (:meth:`kill`, the crash case).
    """

    def __init__(self, *args: str, timeout: float = 60.0) -> None:
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "server.py"), *args],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            cwd=ROOT,
            env=env,
            text=True,
        )
        try:
            hello = self._read_line(timeout)
            self.port = int(json.loads(hello)["port"])
        except BaseException:
            self.kill()
            raise
        self.address = ("127.0.0.1", self.port)

    def _read_line(self, timeout: float) -> str:
        ready, _, _ = select.select([self.proc.stdout], [], [], timeout)
        if not ready:
            raise BenchError("server child did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise BenchError(
                f"server child exited with code {self.proc.wait()}"
            )
        return line

    def peak_rss_mb(self) -> float:
        return proc_peak_rss_mb(self.proc.pid)

    def stop(self, timeout: float = 60.0) -> None:
        """Graceful drain and close; waits for the child to exit."""
        if self.proc.poll() is not None:
            return
        try:
            self.proc.stdin.write("stop\n")
            self.proc.stdin.flush()
            self._read_line(timeout)  # "stopped" once the index is closed
            self.proc.wait(timeout=timeout)
        except BaseException:
            self.kill()
            raise
        finally:
            self._close_pipes()
        if self.proc.returncode != 0:
            raise BenchError(f"server child exited with {self.proc.returncode}")

    def kill(self) -> None:
        """SIGKILL the child (nothing flushed beyond what it acked)."""
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait(timeout=60)
        self._close_pipes()

    def _close_pipes(self) -> None:
        for pipe in (self.proc.stdin, self.proc.stdout):
            try:
                pipe.close()
            except OSError:
                pass


# -- a multiplexed JSONL connection for the open-loop generator -------------


class LineConnection:
    """One pipelined JSONL connection, readable without blocking.

    The open-loop generator runs every connection on one thread, so it
    needs reads that never block on a partial line; ``JsonlClient``
    reads with a blocking ``readline``. Requests are encoded with the
    program's wire codec (``spec_to_json``), exactly as ``JsonlClient``
    does.
    """

    def __init__(self, address) -> None:
        self.sock = socket.create_connection(address, timeout=30.0)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.sock.setblocking(False)
        self._buf = bytearray()

    def send(self, envelope: dict) -> None:
        data = json.dumps(envelope).encode("utf-8") + b"\n"
        view = memoryview(data)
        while view:
            try:
                sent = self.sock.send(view)
            except BlockingIOError:
                select.select([], [self.sock], [], 1.0)
                continue
            view = view[sent:]

    def read_lines(self) -> list[dict]:
        """Every complete response line available now."""
        while True:
            try:
                chunk = self.sock.recv(1 << 16)
            except BlockingIOError:
                break
            if not chunk:
                raise BenchError("server closed a generator connection")
            self._buf += chunk
        out = []
        while True:
            cut = self._buf.find(b"\n")
            if cut < 0:
                return out
            out.append(json.loads(self._buf[:cut]))
            del self._buf[: cut + 1]

    def close(self) -> None:
        self.sock.close()


# -- spans and metrics -------------------------------------------------------


def iter_spans(spans):
    """Every span dict of a span tree, depth first."""
    for node in spans:
        yield node
        yield from iter_spans(node.get("children", ()))


def self_time(node: dict) -> float:
    """A span's duration minus the part its children cover (seconds)."""
    start, end = node["start"], node["start"] + node["dur"]
    covered = 0.0
    cursor = start
    for child in sorted(node.get("children", ()), key=lambda c: c["start"]):
        lo = max(cursor, child["start"])
        hi = min(end, child["start"] + child["dur"])
        if hi > lo:
            covered += hi - lo
            cursor = hi
    return max(0.0, node["dur"] - covered)


_SAMPLE = re.compile(r"^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^}]*\})?\s+(\S+)$")


def parse_metrics(text: str) -> dict[str, float]:
    """Unlabelled samples of a Prometheus text exposition, summed by
    name (a server's ``/metrics`` concatenates two registries)."""
    out: dict[str, float] = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = _SAMPLE.match(line.strip())
        if match is None or match.group(2):
            continue
        value = float(match.group(3))
        if math.isfinite(value):
            out[match.group(1)] = out.get(match.group(1), 0.0) + value
    return out


def metrics_diff(before: dict, after: dict, name: str) -> float:
    return after.get(name, 0.0) - before.get(name, 0.0)


# -- the answer check against the sequential scan ---------------------------


def normalize_key(key):
    """Wire keys arrive as JSON lists where the program stored tuples."""
    if isinstance(key, list):
        return tuple(normalize_key(k) for k in key)
    return key


def expected_answer(db, keys, spec) -> list[tuple]:
    """The scan's answer to one spec: ``(key, log_density, posterior)``
    in rank order (density descending, ties by position)."""
    from repro.core.scan import scan_posteriors

    log_dens, post = scan_posteriors(db, spec.q)
    order = np.lexsort((np.arange(log_dens.size), -log_dens))
    if spec.kind == "tiq":
        order = order[post[order] >= spec.tau]
    else:
        order = order[: spec.k]
    return [(keys[i], float(log_dens[i]), float(post[i])) for i in order]


def check_answer(db, keys, spec, got: list[tuple]) -> str | None:
    """Compare one answer, as ``(key, log_density, probability)``
    tuples, with the scan. Returns a description of the first mismatch,
    or ``None`` when the answer is right.

    Ranked answers (MLIQ, ConsensusTopK) must match key for key, in
    order, with posteriors within ``POSTERIOR_TOL``. A TIQ answer is a
    set: its keys must match exactly; its reported posteriors are the
    tree's interval midpoints (the program reports them to a stated
    accuracy only when asked, see README.md), so only its log densities
    are compared.
    """
    kind = spec.kind
    want = expected_answer(db, keys, spec)
    got = [(normalize_key(k), ld, p) for k, ld, p in got]
    if kind == "tiq":
        want_keys, got_keys = {w[0] for w in want}, {g[0] for g in got}
        if want_keys != got_keys:
            return f"tiq keys differ: {len(want_keys ^ got_keys)} mismatched"
        want_by_key = {w[0]: w for w in want}
        pairs = [(want_by_key[g[0]], g) for g in got]
    else:
        if [w[0] for w in want] != [g[0] for g in got]:
            return f"{kind} keys differ: {[w[0] for w in want]} != {[g[0] for g in got]}"
        pairs = list(zip(want, got))
    for w, g in pairs:
        if abs(w[1] - g[1]) > LOG_DENSITY_RTOL * max(1.0, abs(w[1])):
            return f"{kind} log density of {w[0]!r}: {g[1]} != {w[1]}"
        if kind != "tiq" and abs(w[2] - g[2]) > POSTERIOR_TOL:
            return f"{kind} posterior of {w[0]!r}: {g[2]} != {w[2]}"
    return None


def matches_of_result(matches) -> list[tuple]:
    """``(key, log_density, probability)`` of engine ``Match`` objects."""
    return [(m.key, m.log_density, m.probability) for m in matches]


def matches_of_wire(results) -> list[tuple]:
    """``(key, log_density, probability)`` of one wire result list."""
    return [(r["key"], r["log_density"], r["probability"]) for r in results]


# -- one run's outcome -------------------------------------------------------


class Result:
    """Counts, metrics and report lines of one run.

    ``metric`` records a value with its unit and sample count; the
    contract line carries value and unit, the report lines before it
    carry the sample count too.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.wrong = 0
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.notes: list[str] = []

    def fail(self, message: str, *, wrong: bool = False) -> None:
        """Count a failed operation; ``wrong`` marks a wrong answer or a
        lost acknowledged write, which makes the run incorrect."""
        self.failed += 1
        self.wrong += wrong
        if len(self.errors) < 20:
            self.errors.append(message)

    def metric(self, name: str, value: float, unit: str, samples: int) -> None:
        self.metrics[name] = (float(value), unit, int(samples))

    def note(self, line: str) -> None:
        self.notes.append(line)

    @property
    def correct(self) -> bool:
        return self.wrong == 0
