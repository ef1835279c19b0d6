"""The four benchmark workloads; ``run.py`` starts each in a fresh process.

Usage (normally only ``run.py`` calls this)::

    python3 bench/workloads.py --workload NAME --seed N --seconds S \
        --out PATH [--layers] [--smoke] [--setup-only] [--server-setup]

The process prints ``ready`` once the program is imported and its
native kernel loaded -- the end of set-up for the in-process workloads
-- then generates its inputs from ``--seed``, warms up untimed, runs
the timed loop for ``--seconds`` and writes one JSON document to
``--out``: per-operation samples, digests of sampled outputs for the
correctness oracle, peak RSS, and (with ``--layers``) the per-layer
totals of :mod:`layers`.

Why these workloads (see README.md for the full table):

* ``search-pruned`` -- certificate pruning and the kernels do nearly all
  the work; pool, bus and serve are bypassed.
* ``stream-pool``   -- process pool, shared-memory bus, checkpoints and
  the exhaustive search run; serve is bypassed.
* ``serve-cold``    -- every request is unique: queueing, the ladder and
  cache *writes* block the response; pool, bus and certificates are
  bypassed.
* ``serve-warm``    -- every request is a cache hit: only HTTP, queue,
  frame regeneration and cache *reads* are left.
"""

from __future__ import annotations

import argparse
import hashlib
import http.client
import json
import os
import resource
import select
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

import numpy as np

WORKLOADS = ("search-pruned", "stream-pool", "serve-cold", "serve-warm")

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(BENCH_DIR, ".work")

#: search-pruned: scenes x frames of Hurricane Luis at the paper config.
SEARCH_SCENES, SEARCH_FRAMES, SEARCH_SIZE = 6, 9, 96
#: stream-pool: one Luis sequence, pooled over two workers on the shm bus.
STREAM_FRAMES, STREAM_SIZE, STREAM_WORKERS = 16, 64, 2
#: Serve request mix, cycled in this order (dataset, image side).  One
#: size only: with 96 px jobs mixed in, the latency distribution had one
#: mode per size, and whether a slow job overlapped the next arrival
#: moved p90 from one mode to the other between runs.
SERVE_MIX = (("florida", 64), ("luis", 64))
#: Open-loop arrival rates (jobs/s) and hot-set size of serve-warm.
SERVE_RATE = {"serve-cold": 3.0, "serve-warm": 5.0}
HOT_REQUESTS = 8
#: Latency limits (s) behind slo_attainment; an operation is a frame
#: pair, a whole sequence run, or a served job.
SLO_LIMIT_S = {
    "search-pruned": 1.0,
    "stream-pool": 5.0,
    "serve-cold": 0.5,
    "serve-warm": 0.2,
}
#: Every ORACLE_STRIDE-th pair of search-pruned is checked; the serve
#: workloads check ORACLE_JOBS products each.
ORACLE_STRIDE = 8
ORACLE_JOBS = 8
#: A served job that takes longer than this counts as failed.
JOB_TIMEOUT_S = 60.0
#: Pause between a poll's response and the poller's next request.
POLL_INTERVAL_S = 0.01


def digest(*arrays) -> str:
    """SHA-256 over the raw bytes of the given arrays (float64, C order)."""
    h = hashlib.sha256()
    for array in arrays:
        h.update(np.ascontiguousarray(array, dtype=np.float64).tobytes())
    return h.hexdigest()


def scene_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th generated scene of a run seeded ``seed``."""
    return 1_000 * seed + index


# -- inputs -----------------------------------------------------------------------


def search_inputs(seed: int, smoke: bool):
    """Luis scenes and the pair order (interleaved across scenes)."""
    from repro.data.datasets import hurricane_luis

    scenes, frames, size = (2, 3, 64) if smoke else (SEARCH_SCENES, SEARCH_FRAMES, SEARCH_SIZE)
    datasets = [
        hurricane_luis(size=size, n_frames=frames, seed=scene_seed(seed, s))
        for s in range(scenes)
    ]
    order = [(s, p) for p in range(frames - 1) for s in range(scenes)]
    return datasets, order


def stream_inputs(seed: int, smoke: bool):
    from repro.data.datasets import hurricane_luis

    frames = 4 if smoke else STREAM_FRAMES
    return hurricane_luis(size=STREAM_SIZE, n_frames=frames, seed=scene_seed(seed, 0))


def serve_request(workload: str, seed: int, k: int) -> dict:
    """The ``k``-th request of a serve run: unique (cold) or hot (warm)."""
    if workload == "serve-warm":
        k %= HOT_REQUESTS
    dataset, size = SERVE_MIX[k % len(SERVE_MIX)]
    return {"dataset": dataset, "size": size, "seed": scene_seed(seed, k)}


# -- shared helpers ---------------------------------------------------------------


def peak_rss_mb(children: bool = False) -> float:
    """Peak RSS of this process, plus the largest reaped child's if asked."""
    kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        kb += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return kb / 1024.0


def load_program(workload: str, layers: bool):
    """Import what the workload calls, load the native kernel, wrap layers."""
    import repro.core.matching  # noqa: F401
    import repro.data.datasets  # noqa: F401
    from repro.native import native_available

    if workload == "stream-pool":
        import repro.reliability.stream  # noqa: F401
    native_available()
    collector = None
    if layers:
        from layers import Collector, install

        collector = Collector()
        install(collector)
    return collector


# -- in-process workloads ---------------------------------------------------------


def run_search(seed: int, seconds: float, smoke: bool, collector) -> dict:
    from repro.core import matching

    datasets, order = search_inputs(seed, smoke)
    config = datasets[0].config

    def one_pair(index: int):
        s, p = order[index % len(order)]
        before, after = datasets[s].frames[p], datasets[s].frames[p + 1]
        prepared = matching.prepare_frames(before.surface, after.surface, config)
        return matching.track_dense(prepared, search="pruned")

    one_pair(0)  # warm-up: lazy imports and first-touch allocations
    if collector is not None:
        collector.reset()
    ops, kept = [], {}
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while index == 0 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = one_pair(index)
        ops.append({"latency": time.perf_counter() - t0, "ok": True})
        if index % ORACLE_STRIDE == 0 and index < len(order):
            kept[index] = result
        index += 1
    window = time.perf_counter() - start
    outputs = [
        {
            "index": i,
            "digest": digest(r.u, r.v, r.params, r.error),
        }
        for i, r in kept.items()
    ]
    return {
        "ops": ops,
        "units": len(ops),
        "window_s": window,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb(),
    }


def run_stream(seed: int, seconds: float, smoke: bool, collector, work: str) -> dict:
    from repro.params import LUIS_CONFIG
    from repro.reliability.stream import StreamingRunner

    dataset = stream_inputs(seed, smoke)
    checkpoint = os.path.join(work, "stream-checkpoint.npz")

    def one_run(frames):
        runner = StreamingRunner(
            LUIS_CONFIG,
            workers=STREAM_WORKERS,
            transport="shm",
            checkpoint_path=checkpoint,
        )
        return runner.run(frames)

    one_run(dataset.frames[:3])  # warm-up: pool fork path and bus imports
    if collector is not None:
        collector.reset()
    ops, outputs = [], []
    start = time.perf_counter()
    deadline = start + seconds
    while not ops or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        result = one_run(dataset.frames)
        latency = time.perf_counter() - t0
        degraded = len(result.report.degraded_pairs)
        ok = result.completed and degraded == 0
        ops.append({
            "latency": latency,
            "ok": ok,
            "error": None if ok else f"completed={result.completed} degraded={degraded}",
        })
        outputs.append({
            "index": len(outputs),
            "digest": digest(result.field.u, result.field.v, result.field.error),
        })
    window = time.perf_counter() - start
    return {
        "ops": ops,
        "units": len(ops) * (len(dataset.frames) - 1),
        "window_s": window,
        "outputs": outputs,
        "peak_rss_mb": peak_rss_mb(children=True),
    }


# -- the served workloads ---------------------------------------------------------


class ServeError(RuntimeError):
    """The server failed to start or answer."""


def _request(conn, method: str, path: str, body: bytes | None = None):
    headers = {"Content-Type": "application/json"} if body is not None else {}
    conn.request(method, path, body=body, headers=headers)
    response = conn.getresponse()
    return response.status, response.read()


class Server:
    """One ``repro serve`` process, started through ``serve_launcher.py``."""

    def __init__(self, work: str, layers: bool, tag: str) -> None:
        self.layers = layers
        self.state_dir = os.path.join(work, f"state-{tag}")
        self.control_dir = os.path.join(work, f"control-{tag}")
        os.makedirs(self.control_dir, exist_ok=True)
        self.serve_args = ["serve", "--port", "0", "--state-dir", self.state_dir]
        self.command = [sys.executable, os.path.join(BENCH_DIR, "serve_launcher.py")]
        if layers:
            self.command.append("--layers")
        self.command += ["--", *self.serve_args]
        self._log = open(os.path.join(work, f"server-{tag}.log"), "wb")
        self.proc = None
        self.port = None
        self._commands = 0

    def start(self) -> float:
        """Launch; returns seconds from spawn to the first 200 on /healthz."""
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            self.command,
            cwd=ROOT,
            stdin=subprocess.PIPE if self.layers else subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            stderr=self._log,
            text=True,
        )
        ready, _, _ = select.select([self.proc.stdout], [], [], 120.0)
        line = self.proc.stdout.readline() if ready else ""
        if "listening on http://" not in line:
            self.stop()
            raise ServeError(f"server did not start (first line: {line!r})")
        self.port = int(line.split("http://", 1)[1].split()[0].rsplit(":", 1)[1])
        deadline = time.perf_counter() + 120.0
        while True:
            try:
                if self.fresh_get("/healthz")[0] == 200:
                    return time.perf_counter() - t0
            except (OSError, http.client.HTTPException):
                pass
            if time.perf_counter() > deadline:
                self.stop()
                raise ServeError("server never answered /healthz")
            time.sleep(0.002)

    def connect(self) -> http.client.HTTPConnection:
        return http.client.HTTPConnection("127.0.0.1", self.port, timeout=JOB_TIMEOUT_S)

    def fresh_get(self, path: str):
        conn = self.connect()
        try:
            return _request(conn, "GET", path)
        finally:
            conn.close()

    def control(self, command: str) -> dict:
        """Send one command to the launcher's control thread; wait for its answer."""
        self._commands += 1
        path = os.path.join(self.control_dir, f"{self._commands}-{command}.json")
        self.proc.stdin.write(f"{command} {path}\n")
        self.proc.stdin.flush()
        deadline = time.perf_counter() + 60.0
        while not os.path.exists(path):
            if time.perf_counter() > deadline:
                raise ServeError(f"launcher did not answer {command!r}")
            time.sleep(0.005)
        with open(path, encoding="utf-8") as handle:
            return json.load(handle)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status", encoding="ascii") as handle:
            for line in handle:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise ServeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc is not None and self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=60)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc is not None:
            for stream in (self.proc.stdin, self.proc.stdout):
                if stream is not None:
                    stream.close()
        self._log.close()


def _rtt_probe(server: Server, count: int = 5) -> dict:
    """Median ``GET /healthz`` round trip on a kept-alive and on fresh connections."""
    conn = server.connect()
    try:
        _request(conn, "GET", "/healthz")  # opens the connection
        keepalive = []
        for _ in range(count):
            t0 = time.perf_counter()
            _request(conn, "GET", "/healthz")
            keepalive.append(time.perf_counter() - t0)
    finally:
        conn.close()
    fresh = []
    for _ in range(count):
        t0 = time.perf_counter()
        server.fresh_get("/healthz")
        fresh.append(time.perf_counter() - t0)
    return {"keepalive": statistics.median(keepalive), "fresh": statistics.median(fresh)}


def _wait_done(server: Server, payloads: list[dict]) -> None:
    """Submit ``payloads`` and block until every product is available."""
    conn = server.connect()
    try:
        ids = []
        for payload in payloads:
            status, body = _request(conn, "POST", "/v1/jobs", json.dumps(payload).encode())
            if status != 202:
                raise ServeError(f"warm-up submit refused: {status} {body[:200]!r}")
            ids.append(json.loads(body)["id"])
        deadline = time.perf_counter() + JOB_TIMEOUT_S
        for job_id in ids:
            while _request(conn, "GET", f"/v1/products/{job_id}")[0] != 200:
                if time.perf_counter() > deadline:
                    raise ServeError(f"warm-up job {job_id} never finished")
                time.sleep(POLL_INTERVAL_S)
    finally:
        conn.close()


class OpenLoopClient:
    """Open-loop load on two keep-alive connections.

    One thread submits each job at its due time (``POST /v1/jobs``), the
    other polls ``GET /v1/products/{id}`` for every outstanding job until
    it returns 200.  A job's latency runs from its due time until its
    product bytes arrive, so a stalled submitter or a slow poll shows up
    in the latency instead of silently thinning the load.

    The poller never idles: it sends one request every
    ``POLL_INTERVAL_S`` after the previous response, polling the
    least recently polled job, or ``GET /healthz`` when none is
    outstanding.  On a kept-alive connection the round trip depends on
    whether the next request follows the last response within the
    kernel's delayed-ACK timeout (about 40 ms: a two-segment response
    then waits for the ACK); a poller that sometimes paused longer
    would mix fast and slow round trips from run to run.  Running free,
    its cycle is also independent of each job's submit time, so
    completions meet it at a random phase.
    """

    def __init__(self, server: Server, payloads: list[dict], rate: float) -> None:
        self.server = server
        self.payloads = payloads
        self.gap = 1.0 / rate
        self.jobs: list[dict] = []
        self.requests = 0
        self.idle_polls = 0
        self._outstanding: list[dict] = []
        self._lock = threading.Lock()
        self._submitting = True

    def run(self) -> list[dict]:
        start = time.perf_counter() + 0.25
        poller = threading.Thread(target=self._poll, name="bench-poller")
        poller.start()
        try:
            self._submit(start)
        finally:
            with self._lock:
                self._submitting = False
            poller.join()
        return self.jobs

    def _submit(self, start: float) -> None:
        conn = self.server.connect()
        try:
            for k, payload in enumerate(self.payloads):
                due = start + k * self.gap
                delay = due - time.perf_counter()
                if delay > 0:
                    time.sleep(delay)
                job = {"k": k, "request": payload, "due": due, "ok": False, "error": None}
                job["sent"] = time.perf_counter()
                job["sent_epoch"] = time.time()
                try:
                    status, body = _request(conn, "POST", "/v1/jobs", json.dumps(payload).encode())
                except (OSError, http.client.HTTPException) as exc:
                    conn.close()
                    conn = self.server.connect()
                    status, body = None, str(exc).encode()
                job["posted"] = time.perf_counter()
                with self._lock:
                    self.requests += 1
                    self.jobs.append(job)
                    if status == 202:
                        job["id"] = json.loads(body)["id"]
                        job["polled"] = 0.0
                        self._outstanding.append(job)
                    else:
                        job["error"] = f"submit {status}: {body[:200]!r}"
        finally:
            conn.close()

    def _poll(self) -> None:
        conn = self.server.connect()
        try:
            while True:
                with self._lock:
                    if not self._outstanding and not self._submitting:
                        return
                    job = min(self._outstanding, key=lambda j: j["polled"], default=None)
                conn = self._poll_one(conn, job)
                time.sleep(POLL_INTERVAL_S)
        finally:
            conn.close()

    def _poll_one(self, conn, job: dict | None):
        path = "/healthz" if job is None else f"/v1/products/{job['id']}"
        try:
            status, body = _request(conn, "GET", path)
        except (OSError, http.client.HTTPException) as exc:
            conn.close()
            conn = self.server.connect()
            status, body = None, str(exc).encode()
        arrived = time.perf_counter()
        with self._lock:
            if job is None:
                self.idle_polls += 1
                return conn
            self.requests += 1
            job["polled"] = arrived
            if status == 200:
                job["arrived"] = arrived
                job["arrived_epoch"] = time.time()
                job["ok"] = True
            elif status != 202:
                job["error"] = f"product {status}: {body[:200]!r}"
            elif arrived - job["sent"] > JOB_TIMEOUT_S:
                job["error"] = f"timed out after {JOB_TIMEOUT_S:g} s"
            else:
                return conn
            self._outstanding.remove(job)
        return conn


def _field_digest(server: Server, job_id: str) -> str | None:
    import io

    status, body = server.fresh_get(f"/v1/products/{job_id}/field")
    if status != 200:
        return None
    with np.load(io.BytesIO(body)) as data:
        return digest(data["u"], data["v"], data["error"])


def run_serve(
    workload: str, seed: int, seconds: float, layers: bool, measure_setup: bool, work: str,
) -> dict:
    setups = []
    if measure_setup:
        for tag in ("setup-1", "setup-2"):
            probe = Server(work, layers=False, tag=tag)
            try:
                setups.append(probe.start())
            finally:
                probe.stop()
    server = Server(work, layers=layers, tag="run")
    try:
        setups.append(server.start())
        rate = SERVE_RATE[workload]
        count = max(1, int(round(seconds * rate)))
        if workload == "serve-warm":
            hot = [serve_request(workload, seed, k) for k in range(HOT_REQUESTS)]
            _wait_done(server, hot)
        else:
            _wait_done(server, [serve_request(workload, seed, 10_000)])  # warm-up, unique
        rtt_before = _rtt_probe(server)
        if layers:
            server.control("reset")
        client = OpenLoopClient(
            server, [serve_request(workload, seed, k) for k in range(count)], rate
        )
        jobs = client.run()
        window = max(j.get("arrived", j["posted"]) for j in jobs) - jobs[0]["due"]
        totals = server.control("dump") if layers else None
        rtt_after = _rtt_probe(server)
        status, body = server.fresh_get("/v1/jobs")
        records = {r["id"]: r for r in json.loads(body)["jobs"]} if status == 200 else {}
        rss = server.peak_rss_mb()

        done = [j for j in jobs if j["ok"]]
        if workload == "serve-warm":
            sample, seen = [], set()
            for j in done:
                key = json.dumps(j["request"], sort_keys=True)
                if key not in seen:
                    seen.add(key)
                    sample.append(j)
        else:
            step = max(1, len(done) // ORACLE_JOBS)
            sample = done[::step]
        outputs = []
        for j in sample[:ORACLE_JOBS]:
            outputs.append({
                "index": j["k"], "request": j["request"],
                "digest": _field_digest(server, j["id"]),
            })
    finally:
        server.stop()

    ops = []
    for j in jobs:
        record = records.get(j.get("id"), {})
        op = {
            "latency": (j["arrived"] - j["due"]) if j["ok"] else None,
            "ok": j["ok"],
            "error": j["error"],
            "lag": j["sent"] - j["due"],
        }
        if j["ok"] and record.get("finished_at") is not None:
            op.update(
                submit=record["submitted_at"] - j["sent_epoch"],
                queue_wait=record["queue_wait_seconds"],
                job_wall=record["finished_at"] - record["started_at"],
                poll_gap=j["arrived_epoch"] - record["finished_at"],
            )
        ops.append(op)
    return {
        "ops": ops,
        "units": sum(1 for j in jobs if j["ok"]),
        "window_s": window,
        "outputs": outputs,
        "peak_rss_mb": rss,
        "setup_s": setups,
        "server_command": server.serve_args,
        "rate": SERVE_RATE[workload],
        "requests": client.requests,
        "idle_polls": client.idle_polls,
        "rtt": {"before": rtt_before, "after": rtt_after},
        "collector": totals,
    }


# -- entry point --------------------------------------------------------------------


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--layers", action="store_true")
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument(
        "--server-setup", action="store_true",
        help="serve workloads: time three server launches (the last one serves the run)",
    )
    args = parser.parse_args(argv)

    serve = args.workload.startswith("serve")
    collector = None if serve else load_program(args.workload, args.layers)
    print("ready", flush=True)
    if args.setup_only:
        return 0

    work = os.path.join(WORK_DIR, f"{args.workload}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        if args.workload == "search-pruned":
            result = run_search(args.seed, args.seconds, args.smoke, collector)
        elif args.workload == "stream-pool":
            result = run_stream(args.seed, args.seconds, args.smoke, collector, work)
        else:
            result = run_serve(
                args.workload, args.seed, args.seconds, args.layers, args.server_setup, work,
            )
        if collector is not None:
            result["collector"] = collector.snapshot()
    finally:
        shutil.rmtree(work, ignore_errors=True)
    tmp = f"{args.out}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    os.replace(tmp, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
