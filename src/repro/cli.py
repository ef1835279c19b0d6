"""Command-line interface.

A small operational front-end over the library, mirroring what the
paper's production pipeline exposed to forecasters:

* ``repro track``     -- run the SMA tracker on a synthetic dataset and
  save/inspect the motion field,
* ``repro winds``     -- per-cloud-class wind statistics from a saved
  field,
* ``repro machine``   -- the MP-2 description and the modeled Table 2 /
  Table 4 timing rows,
* ``repro datasets``  -- list the available paper-analogue datasets and
  their full-scale parameters,
* ``repro stream``    -- fault-tolerant streaming of a whole frame
  sequence with optional fault injection and checkpoint/resume;
  ``--source ring://NAME`` consumes live frames off a shared-memory
  ring instead of a synthetic dataset (see ``docs/ingestion.md``),
* ``repro ingest``    -- the live publisher: prepare frames (synthetic
  generator, directory tail, or TCP socket) and publish them onto a
  named shared-memory ring at a configurable cadence,
* ``repro serve``     -- the production serving layer: durable job
  queue with leases/retries/dead-letter, content-addressed result
  cache, and the HTTP wind-product API behind an asyncio frontend (see
  ``docs/serving.md``); ``--chaos`` arms seeded worker-fault injection
  for recovery testing and ``--nodes N`` spawns a multi-process fleet
  over the shared state dir,
* ``repro serve-worker`` -- one compute node of a serve fleet: claims
  jobs from the shared state dir under per-node leases, no HTTP
  listener; SIGTERM retires the node without losing fleet work,
* ``repro serve-admin`` -- operator console for a serve deployment:
  list dead-letter jobs and requeue them, over HTTP (``--url``) or
  directly against an offline state directory (``--state-dir``);
  ``flightlog`` merges every node's flight journal chronologically,
* ``repro profile``   -- trace one pair end to end and print the
  per-phase modeled (MasPar) vs measured (host) timing profile.

``repro track`` and ``repro stream`` accept ``--trace out.json`` /
``--metrics out.json`` to export a Chrome-trace (Perfetto-loadable)
span timeline and the metrics registry.

Every command is a pure function of its arguments (no global state), so
the test suite drives :func:`main` directly.
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

import numpy as np

from . import __version__
from .analysis.costmodel import (
    SGISequentialModel,
    speedup,
    table2_model_rows,
    table4_model_rows,
)
from .analysis.report import format_table
from .core.field import MotionField
from .core.sma import SMAnalyzer
from .data.datasets import (
    PAPER_SCALE,
    Dataset,
    florida_thunderstorm,
    hurricane_frederic,
    hurricane_luis,
)
from .kernels import KERNEL_BACKENDS
from .maspar.machine import GODDARD_MP2
from .params import FREDERIC_CONFIG, GOES9_CONFIG, LUIS_CONFIG

DATASET_FACTORIES = {
    "frederic": hurricane_frederic,
    "florida": florida_thunderstorm,
    "luis": hurricane_luis,
}

CONFIGS = {
    "frederic": FREDERIC_CONFIG,
    "florida": GOES9_CONFIG,
    "luis": LUIS_CONFIG,
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Semi-fluid Motion Analysis (IPPS'96 reproduction)",
    )
    parser.add_argument("--version", action="version", version=f"repro {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    track = sub.add_parser("track", help="track a synthetic dataset pair")
    track.add_argument("dataset", choices=sorted(DATASET_FACTORIES))
    track.add_argument("--size", type=int, default=96, help="image side (pixels)")
    track.add_argument("--seed", type=int, default=0)
    track.add_argument("--pair", type=int, default=0, help="frame pair index")
    track.add_argument("--search", type=int, default=3, help="z-search half-width")
    track.add_argument("--template", type=int, default=4, help="z-template half-width")
    track.add_argument(
        "--search-mode", choices=("exhaustive", "pruned", "pyramid"),
        default="exhaustive",
        help="hypothesis schedule: 'pruned' is bit-identical with fewer GE "
        "solves; 'pyramid' is approximate coarse-to-fine (continuous model only)",
    )
    track.add_argument(
        "--backend", choices=KERNEL_BACKENDS, default="auto",
        help="kernel backend: 'auto' picks the native C kernel when available "
        "(bit-identical to 'numpy'); 'native' requires it",
    )
    track.add_argument("--out", type=str, default=None, help="save the field (.npz)")
    track.add_argument(
        "--subpixel", action="store_true",
        help="apply parabolic sub-pixel refinement (extensions.subpixel)",
    )
    _add_obs_arguments(track)

    winds = sub.add_parser("winds", help="wind statistics from a saved field")
    winds.add_argument("field", type=str, help="MotionField .npz path")
    winds.add_argument("--percentiles", type=str, default="50,90,99")

    machine = sub.add_parser("machine", help="MP-2 description and timing model")
    machine.add_argument("--tables", action="store_true", help="print modeled Tables 2 & 4")

    sub.add_parser("datasets", help="list datasets and their paper-scale parameters")

    stream = sub.add_parser(
        "stream", help="fault-tolerant streaming over a whole frame sequence"
    )
    stream.add_argument("dataset", choices=sorted(DATASET_FACTORIES))
    stream.add_argument("--size", type=int, default=64, help="image side (pixels)")
    stream.add_argument("--frames", type=int, default=8, help="sequence length")
    stream.add_argument("--seed", type=int, default=0, help="dataset seed")
    stream.add_argument("--search", type=int, default=2, help="z-search half-width")
    stream.add_argument("--template", type=int, default=3, help="z-template half-width")
    stream.add_argument(
        "--search-mode", choices=("exhaustive", "pruned"), default="exhaustive",
        help="hypothesis schedule ('pruned' is bit-identical with fewer GE "
        "solves; the approximate pyramid schedule is not streamable)",
    )
    stream.add_argument(
        "--backend", choices=KERNEL_BACKENDS, default="auto",
        help="kernel backend (all bit-identical)",
    )
    stream.add_argument(
        "--inject-faults", type=str, default=None, metavar="SPEC",
        help="comma-separated fault spec, e.g. "
        "'corrupt:7:nan-speckle,read:3,write:2,mem:10,deadrows:12:2' "
        "or 'random' for a seeded random plan",
    )
    stream.add_argument(
        "--fault-seed", type=int, default=0,
        help="seed for frame corruption and 'random' fault plans",
    )
    stream.add_argument(
        "--checkpoint", type=str, default=None, metavar="PATH",
        help="checkpoint file (.npz), written after every pair",
    )
    stream.add_argument(
        "--resume", action="store_true",
        help="continue from --checkpoint if it matches this run",
    )
    stream.add_argument(
        "--stop-after", type=int, default=None, metavar="N",
        help="process at most N pairs this invocation (for resume tests)",
    )
    stream.add_argument(
        "--hs-iterations", type=int, default=60,
        help="Horn-Schunck fallback iteration cap",
    )
    stream.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="shard independent pairs over N processes (incompatible "
        "with --inject-faults; bit-identical to the sequential path)",
    )
    stream.add_argument(
        "--transport", choices=("pickle", "shm"), default="pickle",
        help="how pooled workers receive frames: 'pickle' (default) or "
        "'shm' (zero-copy shared-memory ring; bit-identical)",
    )
    stream.add_argument(
        "--source", type=str, default=None, metavar="ring://NAME",
        help="consume live frames from a shared-memory ring (published "
        "by 'repro ingest') instead of generating the dataset locally; "
        "the dataset argument still selects the model configuration",
    )
    stream.add_argument("--out", type=str, default=None, help="save the mean field (.npz)")
    stream.add_argument(
        "--report", type=str, default=None, metavar="PATH",
        help="write the structured RunReport (with per-pair timing and "
        "the cost-ledger breakdown) as JSON",
    )
    _add_obs_arguments(stream)

    ingest = sub.add_parser(
        "ingest",
        help="publish prepared frames onto a named shared-memory ring "
        "(the live publisher; consumers attach with --source ring://NAME)",
    )
    ingest.add_argument(
        "--ring", type=str, required=True, metavar="NAME",
        help="ring name (consumers attach as ring://NAME)",
    )
    ingest.add_argument(
        "--source", type=str, default="synthetic:luis", metavar="SPEC",
        help="frame source: synthetic:NAME (frederic/florida/luis), "
        "dir:PATH (tail a directory for .npy/.npz drops; a file named "
        "STOP ends the stream), or tcp://HOST:PORT (length-prefixed "
        ".npz messages)",
    )
    ingest.add_argument("--size", type=int, default=64, help="synthetic image side")
    ingest.add_argument(
        "--frames", type=int, default=8, help="synthetic sequence length"
    )
    ingest.add_argument(
        "--seed", type=int, default=0,
        help="synthetic dataset seed (matches the 'repro stream' default, "
        "so a ring-fed stream reproduces the batch run bit-identically)",
    )
    ingest.add_argument(
        "--max-frames", type=int, default=None, metavar="N",
        help="publish at most N frames (synthetic sources loop their "
        "sequence to reach N; default: one pass)",
    )
    ingest.add_argument(
        "--capacity", type=int, default=16, metavar="SLOTS",
        help="ring capacity in frame slots (old slots are overwritten; "
        "lapped consumers skip forward, counting the gap)",
    )
    ingest.add_argument(
        "--cadence", type=float, default=0.0, metavar="SECONDS",
        help="minimum seconds between published frames (0 = as fast as "
        "the source produces)",
    )
    ingest.add_argument(
        "--linger", type=float, default=5.0, metavar="SECONDS",
        help="after the source ends, keep the closed ring alive this "
        "long so attached consumers can drain before unlink",
    )
    ingest.add_argument(
        "--no-prep", action="store_true",
        help="publish raw frames without the prepared surface-fit "
        "stacks (consumers redo the preparation themselves)",
    )
    _add_obs_arguments(ingest)

    serve = sub.add_parser(
        "serve",
        help="HTTP serving: durable job queue, content-addressed result "
        "cache, wind-product API; --nodes spawns a multi-process fleet",
    )
    serve.add_argument("--host", type=str, default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8641)
    _add_serve_tuning_arguments(serve)
    serve.add_argument(
        "--source", type=str, default=None, metavar="ring://NAME",
        help="also consume live frames from a shared-memory ring; the "
        "latest live field serves on GET /v1/live/latest and /healthz "
        "reports the ring attach state",
    )
    serve.add_argument(
        "--nodes", type=int, default=0, metavar="N",
        help="spawn N 'repro serve-worker' node processes over the shared "
        "state dir (fleet mode: shared job store, fleet-wide result "
        "dedup, per-node flight journals); the frontend then defaults "
        "to zero local workers",
    )
    serve.add_argument(
        "--workers-per-node", type=int, default=2, metavar="N",
        help="worker threads in each --nodes worker process",
    )
    serve.add_argument(
        "--fleet", action="store_true",
        help="fleet mode without spawning nodes: share the state dir "
        "with externally launched 'repro serve-worker' processes",
    )
    serve.add_argument(
        "--shed-watermark", type=float, default=None, metavar="F",
        help="load-shed watermark as a fraction of --queue-depth: past "
        "it, lowest-priority submissions are shed first (429 + "
        "serve.shed.* counters); highest priorities are only ever "
        "refused by the hard capacity limit",
    )
    _add_obs_arguments(serve)

    serve_worker = sub.add_parser(
        "serve-worker",
        help="one worker node of a serve fleet: claims jobs from the "
        "shared state dir (no HTTP listener); pair with 'repro serve "
        "--fleet' or --nodes",
    )
    _add_serve_tuning_arguments(serve_worker)
    _add_obs_arguments(serve_worker)

    admin = sub.add_parser(
        "serve-admin",
        help="operator console: inspect and requeue dead-letter jobs, "
        "read the flight recorder",
    )
    admin.add_argument(
        "action", choices=("dead", "requeue", "flightlog"),
        help="'dead' lists the dead-letter queue; 'requeue JOB_ID' "
        "revives one dead job with a fresh attempt budget; 'flightlog' "
        "prints the crash-safe lifecycle journal (post-mortem: point "
        "--state-dir at a dead server's directory)",
    )
    admin.add_argument("job_id", nargs="?", default=None, help="job id for 'requeue'")
    admin.add_argument(
        "--url", type=str, default=None, metavar="URL",
        help="base URL of a running server (e.g. http://127.0.0.1:8641)",
    )
    admin.add_argument(
        "--state-dir", type=str, default=None, metavar="DIR",
        help="operate directly on a server's state directory through "
        "the locked job store (mutually exclusive with --url)",
    )
    admin.add_argument(
        "--job", type=str, default=None, metavar="JOB_ID",
        help="filter 'flightlog' to one job's lifecycle (required with "
        "--url, where the trace route serves it)",
    )

    profile = sub.add_parser(
        "profile", help="modeled vs measured per-phase profile of one pair"
    )
    profile.add_argument("dataset", choices=sorted(DATASET_FACTORIES))
    profile.add_argument("--size", type=int, default=64, help="image side (pixels)")
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--search", type=int, default=2, help="z-search half-width")
    profile.add_argument("--template", type=int, default=3, help="z-template half-width")
    profile.add_argument(
        "--search-mode", choices=("exhaustive", "pruned"), default="exhaustive",
        help="hypothesis schedule (the profile's GE counts show the "
        "pruned schedule's saving)",
    )
    profile.add_argument(
        "--backend", choices=KERNEL_BACKENDS, default="auto",
        help="kernel backend for the profiled run (all bit-identical)",
    )
    _add_obs_arguments(profile)

    return parser


def _add_serve_tuning_arguments(parser: argparse.ArgumentParser) -> None:
    """Flags shared by ``serve`` and ``serve-worker`` -- queue semantics
    must match on every node of a fleet, so both commands accept the
    same tuning surface."""
    parser.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="serving worker threads (default 2; a 'serve --nodes' "
        "frontend defaults to 0 and leaves compute to the worker "
        "nodes; request-level fault injection is refused in serve "
        "mode; server-side chaos is the --chaos flag)",
    )
    parser.add_argument(
        "--pool-workers", type=int, default=None, metavar="N",
        help="shard sequence jobs' pairs over N processes "
        "(the streaming runner's pool; bit-identical to sequential)",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=64, metavar="N",
        help="max pending jobs before submissions get a 429 backpressure "
        "response",
    )
    parser.add_argument(
        "--cache-bytes", type=int, default=256 * 1024 * 1024, metavar="BYTES",
        help="result-cache byte budget (LRU eviction beyond it)",
    )
    parser.add_argument(
        "--state-dir", type=str, default=".repro-serve", metavar="DIR",
        help="durable state: queue journal + result-cache artifacts "
        "(a restarted server resumes pending jobs from here; a fleet "
        "shares one state dir across all its nodes)",
    )
    parser.add_argument(
        "--node", type=str, default=None, metavar="ID",
        help="fleet node identity (default: hostname-pid); stamps "
        "leases, flight-recorder events, and serve.node.* gauges",
    )
    parser.add_argument(
        "--search-mode", choices=("exhaustive", "pruned"), default="exhaustive",
        help="default hypothesis schedule for jobs that do not name one "
        "(result-cache keys include the mode)",
    )
    parser.add_argument(
        "--backend", choices=KERNEL_BACKENDS, default="auto",
        help="default kernel backend for jobs that do not name one "
        "(result-cache keys include it)",
    )
    parser.add_argument(
        "--lease-seconds", type=float, default=15.0, metavar="S",
        help="worker lease/heartbeat deadline; an expired lease requeues "
        "the job (a hung or dead worker never strands work)",
    )
    parser.add_argument(
        "--max-attempts", type=int, default=3, metavar="N",
        help="execution attempts (first try included) before a job is "
        "quarantined dead; inspect with 'repro serve-admin dead'",
    )
    parser.add_argument(
        "--job-timeout", type=float, default=300.0, metavar="S",
        help="per-job wall-clock timeout; 0 disables",
    )
    parser.add_argument(
        "--retry-backoff", type=float, default=0.25, metavar="S",
        help="base of the exponential retry backoff (doubles per retry)",
    )
    parser.add_argument(
        "--chaos", type=str, default=None, nargs="?", const="default",
        metavar="SPEC",
        help="arm seeded worker chaos, e.g. 'crash=0.2,stall=0.1,"
        "stall_seconds=1,flaky=0.3,flaky_attempts=2' (bare --chaos uses "
        "a light default mix); chaos kills/stalls worker *attempts* "
        "deterministically but never touches the computed product",
    )
    parser.add_argument(
        "--chaos-seed", type=int, default=0,
        help="seed for the --chaos schedule (same seed, same faults)",
    )
    parser.add_argument(
        "--transport", choices=("pickle", "shm"), default="pickle",
        help="frame transport for pooled sequence jobs: 'pickle' "
        "(default) or 'shm' (zero-copy shared-memory ring; "
        "bit-identical, so result-cache keys are unaffected)",
    )
    parser.add_argument(
        "--slo", type=str, default=None, metavar="SPEC",
        help="latency/error objectives, e.g. 'p95=2,errors=0.01,window=300' "
        "(p95 target seconds, dead-letter budget fraction, rolling window "
        "seconds); burn rates land on /metrics as serve.slo.* gauges and "
        "/healthz reports the breach verdict (defaults apply without the flag)",
    )


def _add_obs_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--trace", type=str, default=None, metavar="PATH",
        help="write a Chrome-trace JSON of the run (open in Perfetto)",
    )
    parser.add_argument(
        "--metrics", type=str, default=None, metavar="PATH",
        help="write the metrics registry as JSON",
    )


def _arm_observability(args: argparse.Namespace) -> None:
    """Enable tracing (and scope the metrics) when export flags are set."""
    if getattr(args, "trace", None) or getattr(args, "metrics", None):
        from .obs import METRICS, TRACER, enable_tracing

        TRACER.reset()
        METRICS.reset()
        if args.trace:
            enable_tracing(True)


def _write_obs_outputs(args: argparse.Namespace) -> None:
    """Export the trace/metrics files requested on the command line."""
    if getattr(args, "trace", None):
        from .obs import TRACER, write_chrome_trace

        write_chrome_trace(args.trace, TRACER.drain())
        print(f"saved Chrome trace to {args.trace}")
    if getattr(args, "metrics", None):
        from .ioutil import atomic_write_text
        from .obs import METRICS

        atomic_write_text(args.metrics, METRICS.to_json())
        print(f"saved metrics to {args.metrics}")
    from .obs import enable_tracing

    enable_tracing(False)


def _parse_fault_spec(spec: str, seed: int, n_frames: int):
    """Build a :class:`FaultPlan` from the ``--inject-faults`` mini-language.

    Tokens (comma-separated):

    * ``corrupt:FRAME[:MODE]`` -- corrupt one frame (default nan-speckle),
    * ``read:FRAME[:COUNT]``   -- COUNT transient read failures (default 1),
    * ``write:FRAME[:COUNT]``  -- COUNT transient write failures (default 1),
    * ``mem:PAIR``             -- PE-memory squeeze while processing PAIR,
    * ``deadrows:PAIR:N``      -- N PE rows die before PAIR,
    * ``random[:RATE]``        -- seeded random plan at the given rate.
    """
    from .reliability import CORRUPTION_MODES, FaultPlan

    corrupt: dict[int, str] = {}
    reads: dict[int, int] = {}
    writes: dict[int, int] = {}
    mem: list[int] = []
    dead: dict[int, int] = {}
    for token in spec.split(","):
        token = token.strip()
        if not token:
            continue
        parts = token.split(":")
        kind = parts[0]
        try:
            if kind == "random":
                rate = float(parts[1]) if len(parts) > 1 else 0.1
                return FaultPlan.random(
                    seed, n_frames,
                    corrupt_rate=rate, read_failure_rate=rate, memory_fault_rate=rate,
                )
            if kind == "corrupt":
                mode = parts[2] if len(parts) > 2 else "nan-speckle"
                if mode not in CORRUPTION_MODES:
                    raise ValueError(
                        f"unknown corruption mode {mode!r} "
                        f"(choose from {', '.join(CORRUPTION_MODES)})"
                    )
                corrupt[int(parts[1])] = mode
            elif kind == "read":
                reads[int(parts[1])] = int(parts[2]) if len(parts) > 2 else 1
            elif kind == "write":
                writes[int(parts[1])] = int(parts[2]) if len(parts) > 2 else 1
            elif kind == "mem":
                mem.append(int(parts[1]))
            elif kind == "deadrows":
                dead[int(parts[1])] = int(parts[2])
            else:
                raise ValueError(f"unknown fault kind {kind!r}")
        except IndexError:
            raise ValueError(f"malformed fault token {token!r}") from None
    return FaultPlan(
        seed=seed,
        corrupt_frames=corrupt,
        read_failures=reads,
        write_failures=writes,
        pe_memory_faults=tuple(sorted(mem)),
        dead_pe_rows=dead,
    )


def _cmd_track(args: argparse.Namespace) -> int:
    _arm_observability(args)
    factory = DATASET_FACTORIES[args.dataset]
    dataset: Dataset = factory(
        size=args.size, n_frames=max(args.pair + 2, 2), seed=args.seed
    )
    config = dataset.config.replace(n_zs=args.search, n_zt=args.template)
    analyzer = SMAnalyzer(
        config, pixel_km=dataset.pixel_km, search=args.search_mode, backend=args.backend
    )
    field = analyzer.track_pair(dataset.frames[args.pair], dataset.frames[args.pair + 1])
    if args.subpixel:
        from .core.matching import prepare_frames, track_dense
        from .extensions.subpixel import refine

        before = dataset.frames[args.pair]
        after = dataset.frames[args.pair + 1]
        prepared = prepare_frames(
            np.asarray(before.surface, dtype=np.float64),
            np.asarray(after.surface, dtype=np.float64),
            config,
            intensity_before=before.intensity,
            intensity_after=after.intensity,
        )
        refined = refine(
            prepared,
            track_dense(prepared, search=args.search_mode, backend=args.backend),
        )
        field.u[...] = refined.u
        field.v[...] = refined.v
    u_true, v_true = dataset.truth_uv()
    rmse = field.rmse_against(u_true, v_true)
    mean_u, mean_v = field.mean_displacement()
    rows = [
        ("dataset", f"{dataset.name} ({args.size}x{args.size}, pair {args.pair})"),
        ("model", field.metadata["model"]),
        ("hypotheses/pixel", config.hypotheses_per_pixel),
        ("valid pixels", int(field.valid.sum())),
        ("mean displacement", f"({mean_u:+.2f}, {mean_v:+.2f}) px"),
        ("RMSE vs truth", f"{rmse:.3f} px"),
        ("mean wind speed", f"{field.wind_speed()[field.valid].mean():.1f} m/s"),
    ]
    print(format_table(rows, title="SMA tracking"))
    if args.out:
        field.save(args.out)
        print(f"saved field to {args.out}")
    _write_obs_outputs(args)
    return 0


def _cmd_winds(args: argparse.Namespace) -> int:
    field = MotionField.load(args.field)
    speed = field.wind_speed()[field.valid]
    direction = field.wind_direction_deg()[field.valid]
    try:
        percentiles = [float(p) for p in args.percentiles.split(",") if p.strip()]
    except ValueError:
        print("invalid --percentiles (expected comma-separated numbers)", file=sys.stderr)
        return 2
    rows = [
        ("valid pixels", speed.size),
        ("mean speed", f"{speed.mean():.1f} m/s"),
        ("max speed", f"{speed.max():.1f} m/s"),
        ("circular-mean direction", f"{_circular_mean_deg(direction):.0f} deg"),
    ]
    for p in percentiles:
        rows.append((f"p{p:g} speed", f"{np.percentile(speed, p):.1f} m/s"))
    print(format_table(rows, title=f"wind field ({args.field})"))
    return 0


def _circular_mean_deg(direction_deg: np.ndarray) -> float:
    """Circular mean over moving pixels; calm pixels carry NaN direction."""
    rad = np.radians(direction_deg[np.isfinite(direction_deg)])
    if rad.size == 0:
        return float("nan")
    return float(np.degrees(np.arctan2(np.sin(rad).mean(), np.cos(rad).mean())) % 360.0)


def _cmd_machine(args: argparse.Namespace) -> int:
    m = GODDARD_MP2
    rows = [
        ("PE array", f"{m.nyproc} x {m.nxproc} = {m.n_pes}"),
        ("clock", f"{m.clock_hz / 1e6:.1f} MHz"),
        ("PE memory", f"{m.pe_memory_bytes // 1024} KiB"),
        ("double precision", f"{m.flops_double / 1e9:.1f} GFlops"),
        ("X-net / router", f"{m.xnet_bw / 2**30:.1f} / {m.router_bw / 2**30:.1f} GiB/s "
         f"({m.xnet_router_ratio:.0f}x)"),
    ]
    print(format_table(rows, title="MasPar MP-2 (NASA Goddard configuration)"))
    if args.tables:
        print(format_table(
            table2_model_rows(),
            headers=["phase", "modeled seconds"],
            title="Table 2 model (Hurricane Frederic, 512x512)",
            float_format="{:.3f}",
        ))
        print(f"modeled speed-up: {speedup(FREDERIC_CONFIG, (512, 512)):.0f}x "
              "(paper: 1025x)\n")
        print(format_table(
            table4_model_rows(),
            headers=["phase", "modeled seconds"],
            title="Table 4 model (GOES-9 Florida, 512x512)",
            float_format="{:.3f}",
        ))
        print(f"modeled speed-up: {speedup(GOES9_CONFIG, (512, 512)):.0f}x "
              "(paper: 193x)")
    return 0


def _cmd_datasets(_: argparse.Namespace) -> int:
    sgi = SGISequentialModel.calibrated()
    rows = []
    for key, factory in sorted(DATASET_FACTORIES.items()):
        cfg = CONFIGS[key]
        scale = PAPER_SCALE[cfg.name]
        seq_h = sgi.total_seconds(cfg, (512, 512)) / 3600.0
        rows.append(
            (
                key,
                cfg.name,
                "semi-fluid" if cfg.is_semifluid else "continuous",
                f"{scale['n_frames']} frames @ {scale['dt_seconds']:.0f} s",
                f"{seq_h:.1f} h/pair sequential",
            )
        )
    print(format_table(
        rows,
        headers=["key", "paper sequence", "model", "paper scale", "SGI projection"],
        title="paper-analogue datasets",
    ))
    return 0


def _cmd_ingest(args: argparse.Namespace) -> int:
    import signal

    from .bus import IngestDaemon, parse_source

    _arm_observability(args)
    source = parse_source(
        args.source,
        size=args.size,
        n_frames=args.frames,
        seed=args.seed,
        max_frames=args.max_frames,
    )
    daemon = IngestDaemon(
        args.ring,
        source,
        capacity=args.capacity,
        cadence_seconds=args.cadence,
        linger_seconds=args.linger,
        prep=not args.no_prep,
        log=lambda msg: print(msg, flush=True),
    )

    def _request_stop(signum, frame) -> None:
        daemon.stop()

    signal.signal(signal.SIGTERM, _request_stop)
    signal.signal(signal.SIGINT, _request_stop)
    published = daemon.run()
    print(f"ingest: done, {published} frame(s) published to ring://{args.ring}")
    _write_obs_outputs(args)
    return 0


def _cmd_stream(args: argparse.Namespace) -> int:
    from .reliability import StreamingRunner

    _arm_observability(args)
    factory = DATASET_FACTORIES[args.dataset]
    dataset: Dataset = factory(size=args.size, n_frames=args.frames, seed=args.seed)
    config = dataset.config.replace(n_zs=args.search, n_zt=args.template)
    plan = None
    if args.inject_faults:
        if args.source is not None:
            print("error: --inject-faults is incompatible with --source",
                  file=sys.stderr)
            return 2
        plan = _parse_fault_spec(args.inject_faults, args.fault_seed, args.frames)
    runner = StreamingRunner(
        config,
        fault_plan=plan,
        checkpoint_path=args.checkpoint,
        hs_iterations=args.hs_iterations,
        pixel_km=dataset.pixel_km,
        workers=args.workers,
        search=args.search_mode,
        backend=args.backend,
        transport=args.transport,
    )
    if args.source is not None:
        from .bus import RingFrameSource, parse_ring_url

        ring_name = parse_ring_url(args.source)
        print(f"stream: transport={runner.transport}, source=ring://{ring_name}",
              flush=True)
        with RingFrameSource(ring_name) as ring_source:
            result = runner.run_live(ring_source, max_pairs=args.stop_after)
        source_row = (
            "source",
            f"ring://{ring_name} ({ring_source.yielded} frames, "
            f"{ring_source.missed} missed)",
        )
    else:
        print(f"stream: transport={runner.transport}, "
              f"source=dataset:{args.dataset}", flush=True)
        result = runner.run(
            dataset.frames, resume=args.resume, stop_after=args.stop_after
        )
        source_row = (
            "dataset", f"{dataset.name} ({args.size}x{args.size}, {args.frames} frames)"
        )

    rows = [
        source_row,
        ("status", "completed" if result.completed else
         f"stopped after {result.pairs_done}/{result.n_pairs} pairs"),
        ("resumed from checkpoint", "yes" if result.resumed else "no"),
    ]
    if plan is not None:
        rows.append(("injected faults", str(sum(1 for _ in plan.describe()))))
    rows.extend(result.report.summary_rows())
    rows.append(("modeled seconds (total)", f"{result.ledger.total_seconds():.3f}"))
    rows.append(("Gaussian eliminations", str(result.ledger.gaussian_eliminations())))
    print(format_table(rows, title="fault-tolerant streaming"))

    if result.report.events:
        event_rows = [
            (str(e.pair), e.kind, e.action, e.detail) for e in result.report.events
        ]
        print(format_table(
            event_rows,
            headers=["pair", "fault", "action", "detail"],
            title="fault log",
        ))

    if args.report:
        import json

        from .ioutil import atomic_write_text

        payload = json.loads(result.report.to_json(include_timing=True))
        payload["cost"] = {
            "breakdown": [
                {"phase": name, "modeled_seconds": secs, "gaussian_eliminations": ge}
                for name, secs, ge in result.ledger.breakdown(with_counts=True)
            ],
            "total_modeled_seconds": result.ledger.total_seconds(),
            "total_gaussian_eliminations": result.ledger.gaussian_eliminations(),
        }
        atomic_write_text(args.report, json.dumps(payload))
        print(f"saved run report to {args.report}")
    if args.out:
        if result.field is None:
            print("no field to save (run stopped before the first pair)", file=sys.stderr)
            return 1
        result.field.save(args.out)
        print(f"saved mean field to {args.out}")
    _write_obs_outputs(args)
    return 0


def _serve_app_from_args(
    args: argparse.Namespace,
    workers: int,
    fleet: bool = False,
    node: str | None = None,
    source: str | None = None,
    shed_watermark: float | None = None,
):
    """Build the :class:`ServeApp` both ``serve`` and ``serve-worker``
    share (fleet nodes must agree on queue semantics, so both commands
    resolve the same flags through this one constructor)."""
    from .serve import ServeApp

    chaos = None
    if args.chaos is not None:
        from .reliability.injection import ServeChaosPlan

        chaos = ServeChaosPlan.from_spec(args.chaos, seed=args.chaos_seed)
    slo = None
    if args.slo is not None:
        from .serve.slo import SLOConfig

        slo = SLOConfig.from_spec(args.slo)
    return ServeApp(
        state_dir=args.state_dir,
        workers=workers,
        pool_workers=args.pool_workers,
        queue_depth=args.queue_depth,
        cache_bytes=args.cache_bytes,
        search_mode=args.search_mode,
        backend=args.backend,
        lease_seconds=args.lease_seconds,
        max_attempts=args.max_attempts,
        job_timeout_seconds=args.job_timeout if args.job_timeout > 0 else None,
        retry_backoff_seconds=args.retry_backoff,
        chaos=chaos,
        slo=slo,
        transport=args.transport,
        source=source,
        fleet=fleet,
        node=node,
        shed_watermark=shed_watermark,
    )


def _spawn_worker_nodes(args: argparse.Namespace) -> list:
    """Launch the ``--nodes`` worker processes over the shared state dir."""
    import subprocess

    forwarded = [
        "--state-dir", args.state_dir,
        "--workers", str(args.workers_per_node),
        "--queue-depth", str(args.queue_depth),
        "--cache-bytes", str(args.cache_bytes),
        "--search-mode", args.search_mode,
        "--backend", args.backend,
        "--lease-seconds", str(args.lease_seconds),
        "--max-attempts", str(args.max_attempts),
        "--job-timeout", str(args.job_timeout),
        "--retry-backoff", str(args.retry_backoff),
        "--transport", args.transport,
    ]
    if args.pool_workers is not None:
        forwarded += ["--pool-workers", str(args.pool_workers)]
    if args.chaos is not None:
        forwarded += ["--chaos", args.chaos, "--chaos-seed", str(args.chaos_seed)]
    if args.slo is not None:
        forwarded += ["--slo", args.slo]
    children = []
    for index in range(args.nodes):
        node = f"{args.node or 'node'}-{index}"
        children.append(
            subprocess.Popen(
                [sys.executable, "-m", "repro", "serve-worker", "--node", node]
                + forwarded
            )
        )
    return children


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal
    import threading

    from .serve.frontend import make_async_server

    _arm_observability(args)
    fleet = args.fleet or args.nodes > 0
    # A frontend that spawned worker nodes defaults to zero local
    # workers -- compute lives on the nodes; otherwise the classic 2.
    workers = args.workers if args.workers is not None else (0 if args.nodes else 2)
    app = _serve_app_from_args(
        args,
        workers=workers,
        fleet=fleet,
        node=args.node if args.nodes == 0 else f"{args.node or 'node'}-frontend",
        source=args.source,
        shed_watermark=args.shed_watermark,
    )
    children = _spawn_worker_nodes(args) if args.nodes else []
    app.start()
    server = make_async_server(app, host=args.host, port=args.port)
    host, port = server.server_address[:2]
    chaos_note = ""
    if app.chaos is not None and not app.chaos.is_empty:
        chaos_note = f", CHAOS ARMED seed={app.chaos.seed}"
    ring_note = f", live ring://{app.live.ring_name}" if app.live is not None else ""
    fleet_note = f", fleet node {app.node} (+{len(children)} worker nodes)" if fleet else ""
    print(f"repro serve listening on http://{host}:{port} "
          f"(workers={workers}, queue depth={args.queue_depth}, "
          f"transport={app.transport}{fleet_note}{ring_note}{chaos_note})",
          flush=True)

    def _drain_and_stop(signum, frame) -> None:
        # Runs off the main thread so serve_forever can wind down; drain
        # finishes every accepted job before the listener closes.  With
        # spawned nodes: stop admitting, let the nodes drain the shared
        # queue, retire them, then close the listener.
        def _worker() -> None:
            if children:
                app.draining = True
                app.queue.wait_idle()
                for child in children:
                    child.send_signal(signal.SIGTERM)
                for child in children:
                    child.wait()
            app.drain()
            server.shutdown()

        threading.Thread(target=_worker, name="serve-drain", daemon=True).start()

    signal.signal(signal.SIGTERM, _drain_and_stop)
    signal.signal(signal.SIGINT, _drain_and_stop)
    try:
        server.serve_forever()
    finally:
        server.server_close()
        for child in children:
            if child.poll() is None:
                child.terminate()
                child.wait()
    counts = app.queue.counts()
    print(f"drained: {counts['done']} done, {counts['dead']} dead, "
          f"{counts['retrying']} retrying, {counts['pending']} pending")
    _write_obs_outputs(args)
    return 0


def _cmd_serve_worker(args: argparse.Namespace) -> int:
    """One compute node of a serve fleet: claim, execute, heartbeat --
    no HTTP listener.  SIGTERM retires the node gracefully: in-flight
    jobs finish here, queued work stays in the shared store for the
    surviving nodes, and anything stranded by a SIGKILL is reaped by a
    survivor when its lease expires."""
    import signal
    import threading

    _arm_observability(args)
    workers = args.workers if args.workers is not None else 2
    app = _serve_app_from_args(args, workers=workers, fleet=True, node=args.node)
    app.start()
    print(f"repro serve-worker node {app.node} joined the fleet at "
          f"{args.state_dir} (workers={workers})", flush=True)

    stop = threading.Event()

    def _retire(signum, frame) -> None:
        stop.set()

    signal.signal(signal.SIGTERM, _retire)
    signal.signal(signal.SIGINT, _retire)
    while not stop.wait(0.2):
        pass
    app.stop_node()
    counts = app.queue.counts()
    print(f"node {app.node} left the fleet: {counts['done']} done, "
          f"{counts['dead']} dead, {counts['pending']} pending, "
          f"{counts['running']} running elsewhere")
    _write_obs_outputs(args)
    return 0


def _cmd_serve_admin(args: argparse.Namespace) -> int:
    """Operator console: dead-letter list/requeue + flight recorder.

    Two transports: ``--url`` talks to a live server over HTTP;
    ``--state-dir`` opens the directory's queue directly, through the
    same locked journal the servers use, so it is safe beside live
    fleet nodes (a nodeless console never revokes their leases, and a
    requeue is one journal record); the flight recorder is read-only
    and torn-tail tolerant, so ``flightlog`` works against a SIGKILLed
    server's directory.
    """
    if (args.url is None) == (args.state_dir is None):
        print("error: pass exactly one of --url or --state-dir", file=sys.stderr)
        return 2
    if args.action == "requeue" and not args.job_id:
        print("error: 'requeue' needs a job id", file=sys.stderr)
        return 2
    if args.action == "flightlog":
        return _serve_admin_flightlog(args)

    if args.url is not None:
        import json as _json
        import urllib.error
        import urllib.request

        base = args.url.rstrip("/")
        try:
            if args.action == "dead":
                with urllib.request.urlopen(f"{base}/v1/jobs?state=dead") as response:
                    body = _json.loads(response.read())
            else:
                request = urllib.request.Request(
                    f"{base}/v1/jobs/{args.job_id}/requeue", method="POST", data=b""
                )
                with urllib.request.urlopen(request) as response:
                    body = _json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            print(f"error: server said {exc.code}: {detail}", file=sys.stderr)
            return 1
        except urllib.error.URLError as exc:
            print(f"error: cannot reach {base}: {exc.reason}", file=sys.stderr)
            return 1
        if args.action == "requeue":
            print(f"requeued {body['id']} (state={body['state']})")
            return 0
        jobs = body["jobs"]
    else:
        import os

        from .serve import JobQueue

        state_path = os.path.join(args.state_dir, "queue.json")
        queue = JobQueue(max_depth=1_000_000, state_path=state_path)
        try:
            if args.action == "requeue":
                try:
                    job = queue.requeue(args.job_id)
                except (KeyError, ValueError) as exc:
                    print(f"error: {exc}", file=sys.stderr)
                    return 1
                print(f"requeued {job.id} (state={job.state})")
                return 0
            jobs = [job.to_dict() for job in queue.list_jobs(state="dead")]
        finally:
            queue.dispose()

    if not jobs:
        print("dead-letter queue is empty")
        return 0
    rows = [
        (
            job["id"],
            str(job["attempts"]),
            job["request"]["dataset"],
            job["request"]["kind"],
            (job.get("error") or "")[:60],
        )
        for job in jobs
    ]
    print(format_table(
        rows,
        headers=["job", "attempts", "dataset", "kind", "last error"],
        title=f"dead-letter jobs ({len(jobs)})",
    ))
    return 0


def _serve_admin_flightlog(args: argparse.Namespace) -> int:
    """Print the flight recorder's lifecycle journal (the post-mortem
    surface): every surviving event, or one job's trace with its
    latency decomposition."""
    job_filter = args.job or args.job_id
    if args.url is not None:
        if not job_filter:
            print(
                "error: 'flightlog --url' needs --job JOB_ID (the full journal "
                "is only readable from the state directory)",
                file=sys.stderr,
            )
            return 2
        import json as _json
        import urllib.error
        import urllib.request

        base = args.url.rstrip("/")
        try:
            with urllib.request.urlopen(f"{base}/v1/jobs/{job_filter}/trace") as response:
                trace = _json.loads(response.read())
        except urllib.error.HTTPError as exc:
            detail = exc.read().decode(errors="replace")
            print(f"error: server said {exc.code}: {detail}", file=sys.stderr)
            return 1
        except urllib.error.URLError as exc:
            print(f"error: cannot reach {base}: {exc.reason}", file=sys.stderr)
            return 1
        events = trace.get("events", [])
        segments = trace.get("segments")
    else:
        from .obs.events import (
            discover_flight_journals,
            job_trace,
            merge_flight_journals,
        )

        # Merge every node's journal (plus rotated archives) into one
        # chronology -- ties on ts break stably on (node, seq), so a
        # fleet's interleaved story reads the same on every replay.
        events = merge_flight_journals(discover_flight_journals(args.state_dir))
        segments = None
        if job_filter:
            events = [e for e in events if e.get("job") == job_filter]
            segments = job_trace(events).get("segments")

    if not events:
        print("flight recorder is empty" + (f" for {job_filter}" if job_filter else ""))
        return 0
    rows = [
        (
            f"{event.get('ts', 0.0):.3f}",
            event.get("node") or "",
            event.get("job", ""),
            event.get("event", ""),
            str(event.get("attempt", "")),
            event.get("worker") or "",
            _json_compact(event.get("fields")),
        )
        for event in events
    ]
    title = "flight recorder" + (f": {job_filter}" if job_filter else "")
    print(format_table(
        rows,
        headers=["ts", "node", "job", "event", "attempt", "worker", "fields"],
        title=f"{title} ({len(events)} events)",
    ))
    if segments:
        seg_rows = [(name, f"{seconds:.4f}") for name, seconds in segments.items()]
        print(format_table(seg_rows, headers=["segment", "seconds"], title="latency"))
    return 0


def _json_compact(fields: dict | None, limit: int = 60) -> str:
    if not fields:
        return ""
    import json as _json

    text = _json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return text if len(text) <= limit else text[: limit - 3] + "..."


def _cmd_profile(args: argparse.Namespace) -> int:
    from .obs import (
        METRICS,
        TRACER,
        counter_family_rows,
        enable_tracing,
        modeled_vs_measured_rows,
        span_summary_rows,
    )
    from .parallel.parallel_sma import ParallelSMA

    factory = DATASET_FACTORIES[args.dataset]
    dataset: Dataset = factory(size=args.size, n_frames=2, seed=args.seed)
    config = dataset.config.replace(n_zs=args.search, n_zt=args.template)
    TRACER.reset()
    METRICS.reset()
    enable_tracing(True)
    driver = ParallelSMA(
        config, pixel_km=dataset.pixel_km, search=args.search_mode, backend=args.backend
    )
    result = driver.track_pair(dataset.frames[0], dataset.frames[1])

    events = TRACER.events()
    phase_rows = [
        (label, f"{modeled:.3f}", f"{measured:.3f}")
        for label, modeled, measured in modeled_vs_measured_rows(result.ledger, events)
    ]
    print(format_table(
        phase_rows,
        headers=["phase", "modeled s (MasPar)", "measured s (host)"],
        title=f"profile: {dataset.name} ({args.size}x{args.size}, pair 0)",
    ))
    span_rows = [
        (name, str(count), f"{total:.3f}", f"{mean_ms:.2f}")
        for name, count, total, mean_ms in span_summary_rows(events)
    ]
    print(format_table(
        span_rows, headers=["span", "count", "total s", "mean ms"], title="spans"
    ))
    family_rows = [
        (family, name, f"{value:g}")
        for family, name, value in counter_family_rows(METRICS.snapshot())
    ]
    if family_rows:
        print(format_table(
            family_rows, headers=["family", "counter", "value"],
            title="counters (search / kernel / serve)",
        ))
    text = METRICS.render_text()
    if text:
        print(text)
    _write_obs_outputs(args)
    return 0


COMMANDS = {
    "track": _cmd_track,
    "winds": _cmd_winds,
    "machine": _cmd_machine,
    "datasets": _cmd_datasets,
    "stream": _cmd_stream,
    "ingest": _cmd_ingest,
    "serve": _cmd_serve,
    "serve-worker": _cmd_serve_worker,
    "serve-admin": _cmd_serve_admin,
    "profile": _cmd_profile,
}


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return COMMANDS[args.command](args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
