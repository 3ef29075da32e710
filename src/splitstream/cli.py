"""Command-line front end: corpus generation, sweeps, simulation, codec.

Every subcommand writes its artifact (CSV or JSON) to the path given with
``--out`` and exits nonzero with a message on stderr when anything is
wrong.  Numeric grids accept either comma lists ("5,15,25") or range
syntax ("2..16" for integers, "1..5:9" for 9 evenly spaced floats,
log-spaced for bandwidths).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .codec import CodecError, decode, pack, rate_fidelity_curve
from .concealment import STRATEGIES, loss_sweep
from .model import CUT_POINTS, SplitModel, cut_point
from .motion import estimate_global_translation, predict, scale_to_tensor
from .pipeline import (PipelineConfig, SessionError, corpus_stats,
                       measure_profiles, run_session)
from .protocol import ProtocolError
from .quantizer import (QuantizedTensor, QuantizerSpec, dequantize, quantize,
                        sweep)
from .strategy import StrategyProfile, latency_regions
from .tensor import TensorStats, psnr, read_tensor, write_tensor
from .tiling import detile, tile, write_pgm

__all__ = ["main"]


class CliError(Exception):
    pass


# ------------------------------------------------------------- small helpers


def _int_list(text: str) -> list[int]:
    if ".." in text:
        lo, hi = text.split("..")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def _float_list(text: str, log: bool = False) -> list[float]:
    if ".." in text:
        span, _, count = text.partition(":")
        lo, hi = (float(x) for x in span.split(".."))
        n = int(count) if count else 5
        if n < 1:
            raise CliError(f"range {text!r} needs a count of at least 1, got {n}")
        if log:
            if not all(math.isfinite(x) and x > 0 for x in (lo, hi)):
                raise CliError(f"log range {text!r} needs finite positive ends")
            return list(np.logspace(math.log10(lo), math.log10(hi), n))
        return list(np.linspace(lo, hi, n))
    return [float(x) for x in text.split(",")]


def _pair(text: str) -> tuple[float, float]:
    parts = text.split(",")
    if len(parts) != 2:
        raise CliError(f"expected 'x,y', got {text!r}")
    return float(parts[0]), float(parts[1])


def _jsonable(obj):
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def _write_json(path: str, obj) -> None:
    Path(path).write_text(json.dumps(_jsonable(obj), sort_keys=True, indent=2)
                          + "\n")


def _write_csv(path: str, rows: list[dict]) -> None:
    if not rows:
        raise CliError("nothing to write")
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)


def _stats_to_dict(stats: TensorStats) -> dict:
    return {
        "label": stats.label,
        "sample_count": stats.sample_count,
        "aggregate_mean": stats.aggregate_mean,
        "aggregate_std": stats.aggregate_std,
        "shape": list(stats.shape),
        "per_neuron_mean": stats.per_neuron_mean.tolist(),
        "per_neuron_std": stats.per_neuron_std.tolist(),
    }


def _stats_from_dict(d: dict) -> TensorStats:
    # any JSON value can stand in a stats file, and an integer too large for
    # a float raises OverflowError
    try:
        return TensorStats(
            per_neuron_mean=np.asarray(d["per_neuron_mean"], dtype=np.float64),
            per_neuron_std=np.asarray(d["per_neuron_std"], dtype=np.float64),
            aggregate_mean=float(d["aggregate_mean"]),
            aggregate_std=float(d["aggregate_std"]),
            sample_count=int(d["sample_count"]),
            label=d.get("label", ""),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise CliError(f"malformed stats: {exc}") from None


def _self_stats(t) -> TensorStats:
    # single-tensor fallback; good for aggregate mode only
    data = np.asarray(t.data, dtype=np.float64)
    return TensorStats(
        per_neuron_mean=data,
        per_neuron_std=np.zeros_like(data),
        aggregate_mean=float(data.mean()),
        aggregate_std=float(data.std()),
        sample_count=1,
        label="self",
    )


# ---------------------------------------------------------------- subcommands


def _cmd_gen_corpus(args) -> int:
    if args.count < 0:
        raise CliError(f"--count must be non-negative, got {args.count}")
    if args.cut != "input":
        cut_point(args.cut)       # refused even when --count is 0
    model = SplitModel(args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    translation = _pair(args.translate) if args.translate else (0.0, 0.0)
    files = []
    for i in range(args.count):
        x = model.generate_input(i, translation=translation)
        if args.cut != "input":
            x = model.forward_client(x, args.cut)
        name = f"img_{i:04d}.ftsr"
        write_tensor(x, out / name)
        files.append(name)
    _write_json(out / "manifest.json", {
        "model": model.manifest(),
        "count": args.count,
        "cut": args.cut,
        "translation": list(translation),
        "files": files,
    })
    print(f"wrote {args.count} tensors to {out}")
    return 0


def _cmd_stats(args) -> int:
    model = SplitModel(args.seed)
    stats = corpus_stats(model, args.cut, args.count)
    _write_json(args.out, _stats_to_dict(stats))
    print(f"stats over {args.count} images at {args.cut} -> {args.out}")
    return 0


def _cmd_quant_sweep(args) -> int:
    model = SplitModel(args.seed)
    stats = corpus_stats(model, args.cut, args.count)
    rows = sweep(model, range(args.count), args.cut,
                 _int_list(args.levels), _float_list(args.widths),
                 stats, mode=args.mode)
    _write_csv(args.out, rows)
    print(f"{len(rows)} grid cells -> {args.out}")
    return 0


def _cmd_codec_curve(args) -> int:
    model = SplitModel(args.seed)
    stats = corpus_stats(model, args.cut, args.count)
    rows = rate_fidelity_curve(model, range(args.count), args.cut,
                               _int_list(args.qualities), stats,
                               levels=args.levels, clip_width=args.clip_width)
    _write_csv(args.out, rows)
    print(f"{len(rows)} rate points -> {args.out}")
    return 0


def _cmd_motion_demo(args) -> int:
    model = SplitModel(args.seed)
    dx, dy = _pair(args.shift)
    ref_img = model.generate_input(args.image_id)
    cur_img = model.generate_input(args.image_id, translation=(dx, dy))
    est = estimate_global_translation(ref_img, cur_img, radius=args.radius)
    rows = []
    for cut in CUT_POINTS:
        ref = model.forward_client(ref_img, cut.name)
        cur = model.forward_client(cur_img, cut.name)
        field = scale_to_tensor(est, cut.stride)
        predicted, valid = predict(ref, field)
        report = psnr(cur, predicted, mask=valid)
        rows.append({
            "cut": cut.name,
            "true_dx": dx, "true_dy": dy,
            "est_dx": est[0], "est_dy": est[1],
            "vx": field.vx, "vy": field.vy,
            "valid_fraction": float(valid.mean()),
            "masked_mse": report.mse,
            "masked_psnr_db": report.psnr_db,
        })
    _write_csv(args.out, rows)
    print(f"shift ({dx}, {dy}) estimated as {est} -> {args.out}")
    return 0


def _cmd_conceal_sweep(args) -> int:
    model = SplitModel(args.seed)
    strategies = args.strategies.split(",")
    for s in strategies:
        if s not in STRATEGIES:
            raise CliError(f"unknown strategy {s!r}; choose from {STRATEGIES}")
    stats = corpus_stats(model, args.cut, args.count)
    rows = loss_sweep(model, range(args.count), args.cut,
                      args.kinds.split(","), _float_list(args.rates),
                      strategies, stats, seed=args.mask_seed)
    _write_csv(args.out, rows)
    print(f"{len(rows)} sweep cells -> {args.out}")
    return 0


def _cmd_latency_regions(args) -> int:
    if not math.isfinite(args.rtt):
        raise CliError(f"--rtt must be finite, got {args.rtt}")
    bandwidths = _float_list(args.bandwidths, log=True)
    if args.profiles:
        data = json.loads(Path(args.profiles).read_text())
        profiles = [StrategyProfile(**p) for p in data["profiles"]]
    else:
        profiles = measure_profiles(SplitModel(args.seed))
        if args.profiles_out:
            _write_json(args.profiles_out,
                        {"profiles": [asdict(p) for p in profiles]})
    rows = latency_regions(profiles, bandwidths, rtt_s=args.rtt)
    _write_csv(args.out, rows)
    print(f"{len(rows)} bandwidth points -> {args.out}")
    return 0


def _cmd_simulate(args) -> int:
    try:
        raw = json.loads(Path(args.config).read_text())
        config = PipelineConfig.from_dict(raw)
    except (json.JSONDecodeError, TypeError) as exc:
        raise CliError(f"malformed config {args.config}: {exc}") from None
    report = run_session(config)
    _write_json(args.out, report)
    s = report["summary"]
    print(f"{s['frames_completed']}/{s['frames_total']} frames completed, "
          f"{s['frames_dropped']} dropped -> {args.out}")
    return 0


def _cmd_encode(args) -> int:
    t = read_tensor(args.input)
    spec = QuantizerSpec(args.levels, args.clip_width, args.mode)
    if args.stats:
        stats = _stats_from_dict(json.loads(Path(args.stats).read_text()))
    else:
        stats = _self_stats(t)
    bits, quality = pack(t, spec, stats, args.quality, args.target_bytes)
    # decode may meet any symbol, and refuses a tensor float32 cannot hold:
    # both ends of the clip interval must reconstruct to finite values
    try:
        with np.errstate(over="ignore"):
            for end in (0, spec.levels - 1):
                dequantize(QuantizedTensor(np.full(t.shape, end, np.uint8), spec),
                           stats)
    except ValueError:
        raise CliError("stats reconstruct values beyond float32 at clip "
                       f"width {spec.clip_width}") from None
    Path(args.out).write_bytes(bits)
    _write_json(args.out + ".meta.json", {
        "shape": list(t.shape),
        "levels": spec.levels,
        "clip_width": spec.clip_width,
        "mode": spec.mode,
        "quality": quality,
        "stats": _stats_to_dict(stats),
    })
    if args.pgm:
        write_pgm(tile(quantize(t, spec, stats)), args.pgm)
    print(f"{len(bits)} bytes at quality {quality} -> {args.out}")
    return 0


def _cmd_decode(args) -> int:
    meta_path = args.meta or args.input + ".meta.json"
    meta = json.loads(Path(meta_path).read_text())
    spec = QuantizerSpec(meta["levels"], meta["clip_width"], meta["mode"])
    stats = _stats_from_dict(meta["stats"])
    plane = decode(Path(args.input).read_bytes())
    if args.pgm:
        write_pgm(plane, args.pgm)
    t_hat = dequantize(detile(plane, spec), stats)
    write_tensor(t_hat, args.out)
    print(f"decoded {plane.layout.plane_w}x{plane.layout.plane_h} plane "
          f"-> {args.out}")
    return 0


# --------------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="splitstream",
        description="split-DNN feature streaming experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=fn)
        p.add_argument("--seed", type=lambda s: int(s, 0), default=0x5EED,
                       help="model seed")
        return p

    p = add("gen-corpus", _cmd_gen_corpus, "write a corpus of FTSR tensors")
    p.add_argument("--out", required=True)
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--cut", default="input",
                   help="input for raw images, or a cut name for activations")
    p.add_argument("--translate", default=None, help="dx,dy pan in pixels")

    p = add("stats", _cmd_stats, "dataset statistics at a cut")
    p.add_argument("--out", required=True)
    p.add_argument("--cut", default="stage2")
    p.add_argument("--count", type=int, default=64)

    p = add("quant-sweep", _cmd_quant_sweep, "agreement/MSE quantizer grid")
    p.add_argument("--out", required=True)
    p.add_argument("--cut", default="stage2")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--levels", default="2..16")
    p.add_argument("--widths", default="1..5:5")
    p.add_argument("--mode", default="aggregate",
                   choices=["aggregate", "per_neuron"])

    p = add("codec-curve", _cmd_codec_curve, "size/agreement per quality")
    p.add_argument("--out", required=True)
    p.add_argument("--cut", default="stage2")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--qualities", default="5,15,25,35,45,55,65,75,85,95")
    p.add_argument("--levels", type=int, default=256)
    p.add_argument("--clip-width", type=float, default=3.0)

    p = add("motion-demo", _cmd_motion_demo, "global-shift prediction demo")
    p.add_argument("--out", required=True)
    p.add_argument("--shift", default="16,8", help="dx,dy pan in pixels")
    p.add_argument("--image-id", type=int, default=0)
    p.add_argument("--radius", type=int, default=40)

    p = add("conceal-sweep", _cmd_conceal_sweep, "loss concealment grid")
    p.add_argument("--out", required=True)
    p.add_argument("--cut", default="stage2")
    p.add_argument("--count", type=int, default=16)
    p.add_argument("--kinds", default="by_element,by_channel")
    p.add_argument("--rates", default="0.0,0.2,0.5")
    p.add_argument("--strategies", default=",".join(STRATEGIES))
    p.add_argument("--mask-seed", type=int, default=7)

    p = add("latency-regions", _cmd_latency_regions,
            "best strategy per bandwidth")
    p.add_argument("--out", required=True)
    p.add_argument("--profiles", default=None,
                   help="profiles JSON; omit to measure live")
    p.add_argument("--profiles-out", default=None,
                   help="also save measured profiles here")
    p.add_argument("--bandwidths", default="1e3..1e9:25")
    p.add_argument("--rtt", type=float, default=0.05)

    p = add("simulate", _cmd_simulate, "run a full session from a config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)

    p = add("encode", _cmd_encode, "FTSR tensor -> FTCB bitstream")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--levels", type=int, default=256)
    p.add_argument("--clip-width", type=float, default=3.0)
    p.add_argument("--mode", default="aggregate",
                   choices=["aggregate", "per_neuron"])
    p.add_argument("--quality", type=int, default=85)
    p.add_argument("--target-bytes", type=int, default=0)
    p.add_argument("--stats", default=None, help="stats JSON from `stats`")
    p.add_argument("--pgm", default=None, help="also dump the tiled plane")

    p = add("decode", _cmd_decode, "FTCB bitstream -> FTSR tensor")
    p.add_argument("--input", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--meta", default=None,
                   help="metadata JSON (default <input>.meta.json)")
    p.add_argument("--pgm", default=None, help="also dump the decoded plane")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (CliError, SessionError, ProtocolError, CodecError, ValueError,
            KeyError, TypeError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
