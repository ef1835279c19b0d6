"""Layer-attributed benchmark of the SMA system: one command, four workloads.

Usage (from the repository root)::

    python3 bench/run.py [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]] [--smoke]

Each workload runs in a fresh process (``workloads.py``) on inputs
generated from ``--seed``.  Without ``--trace`` (or with ``--trace 0``)
the run is untraced and reports the end-to-end metrics.  With
``--trace 1`` the untraced run is followed by a traced one, in which
``layers.py`` wraps each layer's entry points; that run reports the
per-layer metrics and the tracing overhead.  Every run checks a sample
of its outputs against the exhaustive ``backend="numpy"`` reference,
computed here, untimed.

Every metric is printed as ``workload metric value unit``.  A JSON record
with the environment fingerprint goes to ``bench/results/``, and the last
line of standard output is one JSON object::

    {"correct": true, "attempted": 21, "failed": 0, "metrics": {...}}

The exit code is 0 only when every output matched its reference and no
operation failed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads as w
from layers import merge_totals

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
SRC = os.path.join(ROOT, "src")
RESULTS_DIR = os.path.join(BENCH_DIR, "results")

#: Seconds a single workload process may take before it is killed.
CHILD_TIMEOUT_S = 150.0

#: End-to-end metrics (untraced run): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "slo_attainment": "ratio",
    "peak_rss_mb": "MB",
}

#: Printed and recorded but not in BENCHMARK.json: name -> unit.
DIAGNOSTICS = {
    "error_rate": "ratio",
    "latency_samples": "count",
    "oracle_checks": "count",
    "generator_lag_p90_s": "s",
    "idle_polls": "count",
}

#: Layers whose self time is reported as ``<layer>_s``; those with
#: nested layers below them report ``<layer>.self_s``.
TIMED_LAYERS = (
    "search", "sma", "ladder", "stream",
    "kernels.pointwise", "kernels.box_sum", "kernels.certificate", "kernels.eliminate",
    "prep.prepare_frames", "prep.surface_fit", "prep.cache_lookup",
    "pool.startup", "pool.submit", "pool.resolve_wait", "pool.teardown",
    "bus.publish", "bus.read",
    "stream.stage", "stream.fetch", "stream.checkpoint",
    "http.route", "queue.submit", "queue.complete",
    "worker.execute", "serve.result_key", "data.generate",
    "cache.get", "cache.put", "cache.read_product",
)
KERNELS = ("pointwise", "box_sum", "certificate", "eliminate")


def _self_metric(layer: str) -> str:
    return f"{layer}.self_s" if "." not in layer else f"{layer}_s"


#: The per-layer metrics that are layer self times.
SELF_TIME_METRICS = tuple(_self_metric(layer) for layer in TIMED_LAYERS)

#: Per-layer metrics (traced run): name -> unit.  ``/op`` is per timed
#: operation: a frame pair, a sequence run, or a served job.
PER_LAYER = {
    "op.wall_s": "s/op",
    "unattributed_s": "s/op",
    "trace.overhead_ratio": "ratio",
    "search.wall_s": "s/op",
    **{name: "s/op" for name in SELF_TIME_METRICS},
    "search.ge_solves": "count/op",
    "search.solve_ratio": "ratio",
    **{f"kernels.{k}_calls": "count/op" for k in KERNELS},
    **{f"kernels.{k}_computed_bytes": "B/op" for k in KERNELS},
    "prep.cache_hit_ratio": "ratio",
    "pool.worker_busy_s": "s/op",
    "pool.utilization": "ratio",
    "bus.bytes_published": "B/op",
    "bus.torn_reads": "count",
    "stream.checkpoint_bytes": "B/op",
    "ladder.degraded": "count",
    "client.lag_s": "s/op",
    "client.submit_s": "s/op",
    "client.poll_gap_s": "s/op",
    "client.rtt_keepalive_s": "s/req",
    "client.rtt_fresh_s": "s/req",
    "client.requests_per_job": "count/op",
    "queue.wait_s": "s/op",
    "queue.depth_max": "count",
    "worker.job_wall_s": "s/op",
    "cache.put_bytes": "B/op",
    "cache.hit_ratio": "ratio",
}


# -- small helpers ------------------------------------------------------------------


def percentile(values: list[float], q: float) -> float:
    """Linear-interpolated percentile (numpy's default method)."""
    ordered = sorted(values)
    if not ordered:
        return float("nan")
    pos = (len(ordered) - 1) * q / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _git_commit() -> str | None:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                return handle.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="ascii") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> dict:
    import numpy

    import repro.native as native

    return {
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "native_status": native.native_status(),
        "native_build_digest": native._build_digest(),
        "git_commit": _git_commit(),
    }


# -- running one workload process ---------------------------------------------------


class ChildFailed(RuntimeError):
    pass


def spawn(workload: str, seed: int, seconds: float, *, layers=False, smoke=False,
          setup_only=False, server_setup=False) -> tuple[float, dict | None]:
    """Run ``workloads.py`` once; returns (seconds from spawn to ready, result)."""
    os.makedirs(os.path.join(BENCH_DIR, ".work"), exist_ok=True)
    out = os.path.join(BENCH_DIR, ".work", f"result-{os.getpid()}-{time.monotonic_ns()}.json")
    command = [
        sys.executable, os.path.join(BENCH_DIR, "workloads.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", repr(seconds),
        "--out", out,
    ]
    for flag, on in (("--layers", layers), ("--smoke", smoke),
                     ("--setup-only", setup_only), ("--server-setup", server_setup)):
        if on:
            command.append(flag)
    t0 = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=_env(), stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed(f"{workload} did not finish within {CHILD_TIMEOUT_S:g} s")
    if line.strip() != "ready" or proc.returncode != 0:
        raise ChildFailed(f"{workload} exited with code {proc.returncode}")
    if setup_only:
        return ready, None
    try:
        with open(out, encoding="utf-8") as handle:
            return ready, json.load(handle)
    finally:
        os.unlink(out)


def measure_plain(workload: str, seed: int, seconds: float, smoke: bool) -> dict:
    """Untraced run plus set-up time (median of three launches; one when smoke)."""
    if workload.startswith("serve"):
        _, result = spawn(workload, seed, seconds, smoke=smoke, server_setup=not smoke)
    else:
        setups = [
            spawn(workload, seed, seconds, smoke=smoke, setup_only=True)[0]
            for _ in range(0 if smoke else 2)
        ]
        ready, result = spawn(workload, seed, seconds, smoke=smoke)
        result["setup_s"] = setups + [ready]
    return result


# -- correctness oracle -------------------------------------------------------------


class Oracle:
    """Exhaustive ``backend="numpy"`` references, computed once per item."""

    def __init__(self, workload: str, seed: int, smoke: bool) -> None:
        self.workload = workload
        self.seed = seed
        self.smoke = smoke
        self._refs: dict[str, str] = {}

    def check(self, outputs: list[dict]) -> list[str]:
        """Mismatch descriptions (empty when every digest matches)."""
        mismatches = []
        for output in outputs:
            # Every stream-pool run reprocesses the same sequence: one reference.
            item = "sequence" if self.workload == "stream-pool" else output["index"]
            key = json.dumps(output.get("request", item), sort_keys=True)
            if key not in self._refs:
                self._refs[key] = self._reference(output)
            if output["digest"] != self._refs[key]:
                mismatches.append(f"output {key} differs from the numpy reference")
        return mismatches

    def _reference(self, output: dict) -> str:
        from repro.core.matching import prepare_frames, track_dense

        if self.workload == "search-pruned":
            datasets, order = w.search_inputs(self.seed, self.smoke)
            s, p = order[output["index"] % len(order)]
            before, after = datasets[s].frames[p], datasets[s].frames[p + 1]
            prepared = prepare_frames(before.surface, after.surface, datasets[s].config)
            r = track_dense(prepared, search="exhaustive", backend="numpy")
            return w.digest(r.u, r.v, r.params, r.error)
        if self.workload == "stream-pool":
            from repro.params import LUIS_CONFIG
            from repro.reliability.stream import StreamingRunner

            frames = w.stream_inputs(self.seed, self.smoke).frames
            field = StreamingRunner(LUIS_CONFIG, backend="numpy").run(frames).field
            return w.digest(field.u, field.v, field.error)
        from repro.data.datasets import florida_thunderstorm, hurricane_luis

        request = output["request"]
        factory = {"florida": florida_thunderstorm, "luis": hurricane_luis}[request["dataset"]]
        dataset = factory(size=request["size"], n_frames=2, seed=request["seed"])
        config = dataset.config.replace(n_zs=2, n_zt=3)  # JobRequest defaults
        before, after = dataset.frames
        prepared = prepare_frames(
            before.surface, after.surface, config,
            intensity_before=before.intensity, intensity_after=after.intensity,
        )
        r = track_dense(prepared, search="exhaustive", backend="numpy")
        return w.digest(r.u, r.v, r.error)


# -- metrics ------------------------------------------------------------------------


def failures(workload: str, result: dict) -> list[str]:
    """Failed operations plus an invalid open-loop generator."""
    problems = [f"operation {i}: {op.get('error')}" for i, op in enumerate(result["ops"])
                if not op["ok"]]
    if workload.startswith("serve"):
        gap = 1.0 / result["rate"]
        lag = percentile([op["lag"] for op in result["ops"]], 90)
        if lag > 0.1 * gap:
            problems.append(
                f"generator lag p90 {lag:.4f} s exceeds 10% of the {gap:.3f} s gap; run invalid"
            )
    if not result["outputs"]:
        problems.append("no outputs were sampled for the oracle")
    return problems


def end_to_end(workload: str, result: dict) -> dict:
    latencies = [op["latency"] for op in result["ops"] if op["ok"]]
    limit = w.SLO_LIMIT_S[workload]
    return {
        "setup_s": statistics.median(result["setup_s"]),
        "throughput_per_s": result["units"] / result["window_s"],
        "latency_p50_s": percentile(latencies, 50),
        "latency_p90_s": percentile(latencies, 90),
        "slo_attainment": sum(1 for v in latencies if v <= limit) / len(result["ops"]),
        "peak_rss_mb": result["peak_rss_mb"],
    }


def _combined(collector: dict) -> dict:
    """Local and worker-process totals of one traced run, merged per layer."""
    merged: dict[str, dict] = {}
    for side in ("local", "remote"):
        merge_totals(merged, (collector or {}).get(side, {}))
    return merged


def per_layer(workload: str, plain: dict, traced: dict) -> dict:
    ok_ops = [op for op in traced["ops"] if op["ok"]]
    n = max(1, len(ok_ops))
    totals = _combined(traced.get("collector"))

    def q(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    op_wall = _mean(op["latency"] for op in ok_ops)
    plain_wall = _mean(op["latency"] for op in plain["ops"] if op["ok"])
    m = {
        "op.wall_s": op_wall,
        "trace.overhead_ratio": _ratio(op_wall, plain_wall) - 1.0,
        "search.wall_s": q("search", "wall") / n,
    }
    for layer in TIMED_LAYERS:
        m[_self_metric(layer)] = q(layer, "self") / n
    for k in KERNELS:
        m[f"kernels.{k}_calls"] = q(f"kernels.{k}", "calls") / n
        m[f"kernels.{k}_computed_bytes"] = q(f"kernels.{k}", "bytes") / n
    m.update({
        "search.ge_solves": q("search", "ge_solves") / n,
        "search.solve_ratio": _ratio(q("search", "ge_solves"), q("search", "exhaustive_solves")),
        "prep.cache_hit_ratio": _ratio(q("prep.cache_lookup", "hits"),
                                       q("prep.cache_lookup", "calls")),
        "pool.worker_busy_s": q("pool.resolve_wait", "worker_busy") / n,
        "pool.utilization": _ratio(q("pool.resolve_wait", "worker_busy"),
                                   w.STREAM_WORKERS * op_wall * n)
        if workload == "stream-pool" else 0.0,
        "bus.bytes_published": q("bus.publish", "bytes") / n,
        "bus.torn_reads": q("bus.read", "errors"),
        "stream.checkpoint_bytes": q("stream.checkpoint", "bytes") / n,
        "ladder.degraded": q("ladder", "degraded"),
        "queue.depth_max": q("queue.submit", "depth_max"),
        "cache.put_bytes": q("cache.put", "bytes") / n,
        "cache.hit_ratio": _ratio(q("cache.get", "hits"), q("cache.get", "lookups")),
    })
    serve = workload.startswith("serve")
    component = {
        name: _mean(op.get(name, 0.0) for op in ok_ops) if serve else 0.0
        for name in ("lag", "submit", "queue_wait", "job_wall", "poll_gap")
    }
    rtt = traced.get("rtt")
    m.update({
        "client.lag_s": component["lag"],
        "client.submit_s": component["submit"],
        "client.poll_gap_s": component["poll_gap"],
        "queue.wait_s": component["queue_wait"],
        "worker.job_wall_s": component["job_wall"],
        "client.rtt_keepalive_s": _mean(rtt[s]["keepalive"] for s in rtt) if rtt else 0.0,
        "client.rtt_fresh_s": _mean(rtt[s]["fresh"] for s in rtt) if rtt else 0.0,
        "client.requests_per_job": traced["requests"] / n if serve else 0.0,
    })
    if serve:
        # The job's path: generator lag, the submit request, queue wait,
        # the worker's execute call, then the poll that saw the product.
        attributed = (component["lag"] + component["submit"] + component["queue_wait"]
                      + q("worker.execute", "wall") / n + component["poll_gap"])
    else:
        local = traced["collector"]["local"]
        attributed = sum(values["self"] for values in local.values()) / n
    m["unattributed_s"] = op_wall - attributed
    return m


# -- one workload, end to end ---------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    oracle = Oracle(workload, seed, smoke)
    problems: list[str] = []
    plain = measure_plain(workload, seed, seconds, smoke)
    runs = [plain]
    traced = None
    if trace:
        _, traced = spawn(workload, seed, seconds, layers=True, smoke=smoke)
        runs.append(traced)
    for result in runs:
        problems += failures(workload, result)
        problems += oracle.check(result["outputs"])
    attempted = sum(len(r["ops"]) for r in runs)
    failed = len(problems)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "smoke": smoke,
        "attempted": attempted,
        "failed": failed,
        "problems": problems,
        "end_to_end": end_to_end(workload, plain),
        "diagnostics": {
            "error_rate": failed / attempted,
            "latency_samples": sum(1 for op in plain["ops"] if op["ok"]),
            "setup_samples_s": plain["setup_s"],
            "oracle_checks": sum(len(r["outputs"]) for r in runs),
        },
        "latencies_s": [op["latency"] for op in plain["ops"] if op["ok"]],
    }
    if workload.startswith("serve"):
        record["diagnostics"]["generator_lag_p90_s"] = percentile(
            [op["lag"] for op in plain["ops"]], 90
        )
        record["diagnostics"]["idle_polls"] = plain["idle_polls"]
        record["server_command"] = ["repro", *plain["server_command"]]
        record["rtt_probe_s"] = plain["rtt"]
    if traced is not None:
        record["per_layer"] = per_layer(workload, plain, traced)
        record["layers"] = traced.get("collector")
    return record


def print_record(record: dict) -> None:
    name = record["workload"]
    for metric, value in record["end_to_end"].items():
        print(f"{name} {metric} {value!r} {END_TO_END[metric]}")
    for metric, value in record["diagnostics"].items():
        if metric in DIAGNOSTICS:
            print(f"{name} {metric} {value!r} {DIAGNOSTICS[metric]}")
    for metric, value in record.get("per_layer", {}).items():
        print(f"{name} {metric} {value!r} {PER_LAYER[metric]}")
    for problem in record["problems"]:
        print(f"{name} FAILED {problem}", file=sys.stderr)


def save_record(record: dict, fp: dict) -> str:
    os.makedirs(RESULTS_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S", time.gmtime())
    kind = "trace" if record["trace"] else "plain"
    path = os.path.join(
        RESULTS_DIR,
        f"{stamp}-{os.getpid()}-{record['workload']}-s{record['seed']}-{kind}.json",
    )
    payload = {"fingerprint": {**fp, "seed": record["seed"]}, **record, "created": time.time()}
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
    return path


def _default_seconds() -> float:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
            return float(json.load(handle)["run_seconds"])
    except (OSError, ValueError, KeyError):
        return 15.0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default=None,
                        help="one of search-pruned, stream-pool, serve-cold, serve-warm "
                        "(default: all four)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and 1.5 s runs: checks the harness, measures nothing")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"error: no program to measure: {SRC}/repro is missing", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = w.WORKLOADS if args.workload is None else (args.workload,)
    unknown = [n for n in names if n not in w.WORKLOADS]
    if unknown:
        parser.error(f"unknown workload {unknown[0]!r} (choose from {', '.join(w.WORKLOADS)})")
    seconds = args.seconds if args.seconds is not None else (
        1.5 if args.smoke else _default_seconds())

    # Build (or find) the native kernel once, untimed, before any launch.
    subprocess.run(
        [sys.executable, "-c", "from repro.native import native_status; native_status()"],
        cwd=ROOT, env=_env(), check=True, timeout=600,
    )
    fp = fingerprint()
    records = []
    for name in names:
        try:
            record = run_workload(name, args.seed, seconds, bool(args.trace), args.smoke)
        except (ChildFailed, OSError) as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        record["record_path"] = save_record(record, fp)
        print_record(record)
        records.append(record)

    wanted = PER_LAYER if args.trace else END_TO_END
    source = "per_layer" if args.trace else "end_to_end"
    metrics = {}
    for record in records:
        prefix = "" if len(records) == 1 else f"{record['workload']}/"
        for metric, unit in wanted.items():
            metrics[prefix + metric] = {"value": record[source][metric], "unit": unit}
    correct = all(not r["problems"] for r in records)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in records),
        "failed": sum(r["failed"] for r in records),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
