#!/usr/bin/env python3
"""splitstream benchmark: one workload per process, closed loop.

    python3 bench/run.py --workload lossy_stream --seed 0 --seconds 25 --trace 0
    python3 bench/run.py --seed 0 --seconds 25      # every workload, each in
                                                    # its own fresh process

With ``--trace 0`` the run times cold set-up in fresh interpreters, then
repeats the workload's operation list in whole passes until ``--seconds``
have passed, checking every output, and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced passes, reports the
per-layer metrics from the traced ones and writes the spans to
``bench/out/``.  Lines before the last are for people: every metric by name
and unit, the simulated link figures and the environment.  The last line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# set before numpy loads: this 2-core class of machine measures noisily when
# OpenBLAS spreads work over both cores
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
OUT = BENCH / "out"
DIGESTS = BENCH / "digests.json"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("lossy_stream", "long_rtt_target", "rate_sweep")

# (name, unit, better); BENCHMARK.json lists the same, with bounds
END_TO_END = [
    ("items_per_s", "items/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("agreement", "ratio", "higher"),
]

_TIMED = ["model.forward_client", "model.forward_server", "codec.encode",
          "codec.decode"]
PER_LAYER = (
    [(f"{n}.{k}", u, "lower") for n in _TIMED
     for k, u in (("calls", "count"), ("self_ms", "ms"), ("p50_ms", "ms"))]
    + [(f"{n}.self_ms", "ms", "lower") for n in (
        "model.generate_input", "quantizer.quantize", "quantizer.dequantize",
        "tiling.tile", "tiling.detile", "codec.encode_to_target",
        "codec.decode_prefix", "concealment.conceal", "protocol.estimator",
        "protocol.reassembly", "protocol.wire", "netsim.run_until",
        "pipeline.session")]
    + [(f"{n}.calls", "count", "lower") for n in (
        "codec.encode_to_target", "codec.decode_prefix", "concealment.conceal",
        "protocol.estimator", "protocol.may_send")]
    + [
        ("model.init_s", "s", "lower"),
        ("tensor.collect_stats_s", "s", "lower"),
        ("pipeline.corpus_stats_s", "s", "lower"),
        ("codec.encodes_per_target", "count", "lower"),
        ("codec.blocks_decoded_ratio", "ratio", "higher"),
        ("codec.bytes_per_frame", "bytes", "lower"),
        ("concealment.elements_concealed_ratio", "ratio", "lower"),
        ("concealment.amplification", "ratio", "lower"),
        ("protocol.may_send.refused_ratio", "ratio", "lower"),
        ("netsim.events", "count", "lower"),
        ("netsim.link.sends", "count", "lower"),
        ("netsim.link.drop_ratio", "ratio", "lower"),
        ("pipeline.max_queue_bytes", "bytes", "lower"),
        ("pipeline.frames_dropped_ratio", "ratio", "lower"),
        ("pipeline.sim_buffer_wait_ms_p50", "ms", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
)


def environment() -> dict:
    import numpy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
    }


def recorded_digests(seed: int, workload: str) -> dict | None:
    if not DIGESTS.exists():
        return None
    return json.loads(DIGESTS.read_text()).get(str(seed), {}).get(workload)


def cold_setup_s(cuts) -> tuple[float, float]:
    """(wall seconds, reference seconds) of one set-up in a fresh process."""
    cmd = [sys.executable, str(BENCH / "coldstart.py")] + [f"{c}:{n}" for c, n in cuts]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=150, check=True)
    wall, ref = done.stdout.split()
    return float(wall), float(ref)


def emit(values: dict, units: dict) -> None:
    for name, value in values.items():
        print(f"  {name:<40} {value:>14.6g} {units.get(name, '')}")


def result_line(runner, table, values) -> str:
    return json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit}
                    for name, unit, _ in table},
    })


def untraced_run(workload, ops, args, expected) -> None:
    from coldstart import build
    from reference import scaled
    from workloads import Runner, items_per_s

    setup = [cold_setup_s(workload.cuts) for _ in range(SETUP_REPEATS)]
    model, stats = build(workload.cuts)
    runner = Runner(workload, model, stats, expected)
    passes = []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        passes.append(runner.run_pass(ops))
    sim = runner.summary(ops)
    values = {
        "items_per_s": items_per_s(ops, passes),
        "setup_s": statistics.median(scaled(w, r) for w, r in setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "agreement": sim.get("sim_agreement", sim.get("agreement", 0.0)),
    }
    per_item = f"{workload.unit}_per_s"
    shown = {per_item: values["items_per_s"],
             f"{per_item}_wall": runner.raw_items / runner.raw_wall_s
             if runner.raw_wall_s else 0.0,
             "setup_s": values["setup_s"],
             "setup_s_wall": statistics.median(w for w, _ in setup),
             "peak_rss_mb": values["peak_rss_mb"],
             "failed_ratio": runner.failed / runner.attempted}
    shown.update(sim)
    units = {per_item: f"{workload.unit}/s", f"{per_item}_wall": f"{workload.unit}/s",
             "setup_s": "s", "setup_s_wall": "s", "peak_rss_mb": "MiB",
             "failed_ratio": "ratio", "agreement": "ratio",
             "sim_completed_ratio": "ratio", "sim_agreement": "ratio",
             "sim_latency_p50_ms": "ms (simulated)",
             "sim_latency_p90_ms": "ms (simulated)",
             "sim_goodput_kBps": "kB/s (simulated)",
             "sim_latency_samples": "count"}
    print(f"# {len(passes)} passes of {len(ops)} operations, "
          f"{runner.attempted} attempted, {runner.failed} failed; "
          f"pass rates {[round(items_per_s(ops, [p]), 2) for p in passes]}; "
          f"setup samples {[round(scaled(w, r), 3) for w, r in setup]}")
    emit(shown, units)
    print(result_line(runner, END_TO_END, values))


def traced_run(workload, ops, args, expected) -> None:
    from coldstart import build
    from layers import layer_metrics, layer_shares, span_tables
    from tracer import Tracer
    from workloads import Runner, items_per_s

    tracer = Tracer()
    with tracer:
        model, stats = build(workload.cuts)
    setup_range = (0, len(tracer))
    runner = Runner(workload, model, stats, expected)
    untraced, traced, passes = [], [], []
    t0 = time.perf_counter()
    while not passes or time.perf_counter() - t0 < args.seconds:
        untraced.append(runner.run_pass(ops))
        lo, counters_before = len(tracer), tracer.counters.copy()
        wall_before = runner.raw_wall_s
        with tracer:
            traced.append(runner.run_pass(ops, tracer))
        counters = tracer.counters.copy()
        counters.subtract(counters_before)
        passes.append(((lo, len(tracer)), counters, runner.raw_wall_s - wall_before))
    overhead = items_per_s(ops, untraced) / items_per_s(ops, traced)
    OUT.mkdir(exist_ok=True)
    trace_path = OUT / f"trace-{workload.name}-seed{args.seed}.npz"
    tracer.save(trace_path)

    outputs = [runner.outputs[op.op_id] for op in ops if op.op_id in runner.outputs]
    setup, *tables = span_tables(tracer.arrays(), tracer.names,
                                 [setup_range] + [r for r, _c, _w in passes])
    values = layer_metrics(setup, tables, passes, workload, outputs)
    values["trace.overhead_ratio"] = overhead
    print(f"# {len(passes)} traced passes of {len(ops)} operations, "
          f"{len(tracer)} spans written to {trace_path.relative_to(BENCH.parent)}; "
          f"peak RSS {resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024:.0f} MiB")
    print("# layer shares of traced wall time (self time):")
    for layer, share in layer_shares(tables, passes).items():
        print(f"  {layer:<40} {100 * share:>6.1f} %")
    emit(values, {name: unit for name, unit, _ in PER_LAYER})
    print(result_line(runner, PER_LAYER, values))


def run_all(args) -> int:
    worst = 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES,
                    help="one workload; omitted: all, each in a fresh process")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "splitstream" / "__init__.py").is_file():
        print(f"splitstream sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload is None:
        return run_all(args)

    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    ops = workload.ops(args.seed)
    print(f"# workload {workload.name} seed {args.seed} trace {args.trace} "
          + " ".join(f"{k}={v}" for k, v in environment().items()))
    expected = recorded_digests(args.seed, workload.name)
    if expected is None:
        print(f"# no recorded digests for seed {args.seed}: "
              "checking repeats and invariants only")
    (traced_run if args.trace else untraced_run)(workload, ops, args, expected)
    return 0


if __name__ == "__main__":
    sys.exit(main())
