"""Batch command-line surface: simulate, extract, calibrate, measure, verify.

Every command writes a run manifest next to its outputs after they are
complete; a missing manifest means the run failed. Exit codes: 0 success,
1 internal numerical failure (best-effort outputs written), 2 invalid
input or configuration.
"""
from __future__ import annotations

import argparse
import json
import math
import operator
import sys
import time
from dataclasses import replace
from pathlib import Path

from . import __version__
from .deformation import (
    MeasureConfig,
    anchor_scale,
    camera_centers,
    load_rig,
    measure_deformation,
    rig_from_calibration,
    save_rig,
    write_series,
    write_summary,
)
from .errors import (
    BoundsError,
    CalibrationFailed,
    ConfigError,
    EmptySeries,
    EvdeformError,
    InsufficientCorrespondences,
    ParseError,
    StreamTooShort,
    UnknownCamera,
    document_fields,
    read_object,
)
from .extraction import (
    calibration_profile,
    extract_center_sequence,
    extraction_diagnostics,
    match_corresponding,
    measurement_profile,
    read_observations,
    write_observations,
)
from .calibration.pipeline import CalibrationConfig, calibrate, write_iteration_log
from .events import read_stream, write_stream
from .simulator import (
    export_ground_truth,
    load_scenario,
    preset_paper_rig,
    save_scenario,
    simulate,
)
from .verify import report_lines, run_all

EXIT_OK = 0
EXIT_NUMERICAL = 1
EXIT_USAGE = 2


def _write_manifest(out_dir: Path, command: str, args: dict, outputs: list[str],
                    seed, started: float) -> None:
    manifest = {
        "command": command,
        "tool_version": __version__,
        "seed": seed,
        "arguments": {k: str(v) for k, v in args.items()},
        "outputs": outputs,
        "duration_s": time.time() - started,
    }
    path = out_dir / "manifest.json"
    tmp = path.with_suffix(".json.tmp")
    tmp.write_text(json.dumps(manifest, indent=2) + "\n")
    tmp.replace(path)


def cmd_simulate(args) -> int:
    started = time.time()
    if args.preset:
        config = preset_paper_rig()
    elif args.scenario:
        config = load_scenario(args.scenario)
    else:
        print("simulate needs --scenario or --preset", file=sys.stderr)
        return EXIT_USAGE
    if args.seed is not None:
        config = replace(config, seed=args.seed)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    result = simulate(config)
    outputs = []
    meta = {"format": args.format, "cameras": []}
    for stream in result.streams:
        name = f"events_cam{stream.camera_id}." + ("csv" if args.format == "csv" else "bin")
        write_stream(stream, out / name, args.format)
        outputs.append(name)
        meta["cameras"].append(
            {
                "camera_id": stream.camera_id,
                "file": name,
                "width": stream.width,
                "height": stream.height,
                "events": len(stream),
            }
        )
    (out / "streams.json").write_text(json.dumps(meta, indent=2) + "\n")
    outputs.append("streams.json")
    truth_dir = out / "ground_truth"
    outputs += [str(p.relative_to(out)) for p in export_ground_truth(truth_dir, result.truth)]
    save_scenario(out / "scenario.json", config)
    outputs.append("scenario.json")
    _write_manifest(out, "simulate", vars(args), outputs, config.seed, started)
    print(f"wrote {len(result.streams)} streams to {out}")
    return EXIT_OK


def _load_streams(streams_dir: Path, fmt: str | None):
    """The streams streams.json names, each with its camera id and sensor size."""
    meta_path = streams_dir / "streams.json"
    if not meta_path.exists():
        raise ConfigError(f"{meta_path}: not found; it names the stream files and "
                          "their sensor sizes")
    meta = read_object(meta_path, ParseError)
    with document_fields(meta_path, ParseError):
        fmt = fmt or meta.get("format", "csv")
        if fmt not in ("csv", "binary"):
            raise ValueError(f"format {fmt!r} is neither 'csv' nor 'binary'")
        cameras = [
            (streams_dir / cam["file"],
             (operator.index(cam["width"]), operator.index(cam["height"])),
             operator.index(cam["camera_id"]))
            for cam in meta["cameras"]
        ]
    return [
        read_stream(path, fmt, sensor=sensor, camera_id=cid)[0]
        for path, sensor, cid in cameras
    ]


def cmd_extract(args) -> int:
    started = time.time()
    streams_dir = Path(args.streams)
    streams = _load_streams(streams_dir, args.format)
    if not streams:
        print(f"no event streams found in {streams_dir}", file=sys.stderr)
        return EXIT_USAGE
    if args.profile == "calibration":
        config = calibration_profile(args.blink_freq)
    else:
        config = measurement_profile(args.blink_freq)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    outputs = []
    counts = {}
    for stream in streams:
        result = extract_center_sequence(stream, config)
        name = f"observations_cam{stream.camera_id}.csv"
        write_observations(out / name, result.observations)
        outputs.append(name)
        counts[stream.camera_id] = {
            "observations": len(result.observations),
            "noise_rejected": result.noise_count,
            "partial_discards": result.partial_discards,
            "width": stream.width,
            "height": stream.height,
            **extraction_diagnostics(result, stream.sensor),
        }
    (out / "extraction.json").write_text(
        json.dumps({"profile": args.profile, "cameras": counts}, indent=2) + "\n"
    )
    outputs.append("extraction.json")
    _write_manifest(out, "extract", vars(args), outputs, args.seed, started)
    for cid, c in counts.items():
        print(f"cam{cid}: {c['observations']} observations")
    return EXIT_OK


def _extracted_sensor(obs_dir: Path) -> tuple[int, int]:
    """The sensor size extraction.json records for the cameras."""
    path = obs_dir / "extraction.json"
    if not path.exists():
        raise ConfigError(f"{path}: not found; it records the sensor size of the cameras")
    doc = read_object(path, ParseError)
    with document_fields(path, ParseError):
        sizes = {
            (operator.index(c["width"]), operator.index(c["height"]))
            for c in doc["cameras"].values()
            if "width" in c and "height" in c
        }
    if len(sizes) != 1:
        raise ConfigError(f"{path}: expected one sensor size for the cameras, "
                          f"found {sorted(sizes)}")
    return sizes.pop()


def _match_files(files: list[Path], t_th: float):
    """Groups matched over observation files that each hold one camera."""
    if not (math.isfinite(t_th) and t_th > 0):
        raise ConfigError(f"--t-th-us must be finite and positive, got {t_th}")
    tables = [read_observations(f) for f in files]
    ids = [t.camera_id for t in tables]
    if len(set(ids)) < len(ids):
        raise ParseError(f"{files[0].parent}: a camera id repeats across the observation "
                         f"files (camera ids {ids})")
    return match_corresponding(tables, t_th)


def cmd_calibrate(args) -> int:
    started = time.time()
    obs_dir = Path(args.observations)
    files = sorted(obs_dir.glob("observations_cam*.csv"))
    if len(files) < 2:
        print(f"need observations from >= 2 cameras in {obs_dir}", file=sys.stderr)
        return EXIT_USAGE
    config = CalibrationConfig(seed=args.seed if args.seed is not None else 0,
                               sensor=_extracted_sensor(obs_dir))
    groups = _match_files(files, args.t_th_us)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    code = EXIT_OK
    try:
        result = calibrate(groups, config)
    except CalibrationFailed as exc:
        print(f"calibration did not converge: {exc}", file=sys.stderr)
        result = exc.result
        code = EXIT_NUMERICAL
        if result is None:
            return code
    rig = rig_from_calibration(result)
    save_rig(out / "calibration.json", rig)
    write_iteration_log(out / "iterations.log", result.iterations)
    outputs = ["calibration.json", "iterations.log"]
    _write_manifest(out, "calibrate", vars(args), outputs, config.seed, started)
    for cid in result.camera_ids:
        print(
            f"cam{cid}: mean reprojection {result.mean_reprojection[cid]:.4f} px "
            f"(std {result.std_reprojection[cid]:.4f})"
        )
    return code


def _parse_anchor(spec: str | None):
    """Anchor forms: 'baseline:camA,camB:mm' with two different cameras and
    a finite positive distance, or None."""
    if not spec or spec == "none":
        return None
    bad = ConfigError(f"bad anchor spec {spec!r}; expected baseline:A,B:mm with A != B "
                      "and a finite positive distance")
    parts = spec.split(":")
    if len(parts) != 3 or parts[0] != "baseline":
        raise bad
    try:
        a, b = (int(v) for v in parts[1].split(","))
        dist_mm = float(parts[2])
    except ValueError:
        raise bad from None
    if a == b or not (math.isfinite(dist_mm) and dist_mm > 0):
        raise bad
    return a, b, dist_mm


def cmd_measure(args) -> int:
    started = time.time()
    threshold = args.residual_threshold
    if not (math.isfinite(threshold) and threshold > 0):
        raise ConfigError(f"--residual-threshold must be finite and positive, got {threshold}")
    rig = load_rig(args.calibration)
    obs_dir = Path(args.observations)
    files = sorted(obs_dir.glob("observations_cam*.csv"))
    if not files:
        print(f"no observations in {obs_dir}", file=sys.stderr)
        return EXIT_USAGE
    groups = _match_files(files, args.t_th_us)
    anchor = _parse_anchor(args.anchor)
    if anchor is not None:
        a, b, dist_mm = anchor
        centers = camera_centers(rig)
        missing = [cid for cid in (a, b) if cid not in centers]
        if missing:
            raise UnknownCamera(f"anchor camera(s) {missing} not in the calibration")
        rig = anchor_scale(rig, dist_mm, (centers[a], centers[b]))
    else:
        print("warning: no metric anchor given; series is in internal units",
              file=sys.stderr)
    series = measure_deformation(
        rig, groups, MeasureConfig(residual_threshold_px=threshold)
    )
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_series(out / "series.csv", series)
    write_summary(out / "summary.json", series)
    outputs = ["series.csv", "summary.json"]
    _write_manifest(out, "measure", vars(args), outputs, args.seed, started)
    s = series.summary()
    print(
        f"{s['samples']} samples ({s['dropped']} dropped), max amplitude "
        f"{s['max_amplitude']:.4f} {'mm' if s['metric_units'] else 'units'}"
    )
    return EXIT_OK


def cmd_verify(args) -> int:
    started = time.time()
    seed = args.seed if args.seed is not None else 0
    results = run_all(seed=seed, check_determinism=not args.skip_determinism)
    for line in report_lines(results):
        print(line)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        report = [
            {
                "name": r.name,
                "passed": bool(r.passed),
                "figures": {k: float(v) for k, v in r.figures.items()},
                "details": r.details,
            }
            for r in results
        ]
        (out / "verify_report.json").write_text(json.dumps(report, indent=2) + "\n")
        _write_manifest(out, "verify", vars(args), ["verify_report.json"], seed, started)
    return EXIT_OK if all(r.passed for r in results) else EXIT_NUMERICAL


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="evdeform",
        description="Blinking-LED photogrammetry for multi event-camera arrays",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    common.add_argument("--format", choices=["csv", "binary"], default=None,
                        help="event stream file format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("simulate", parents=[common], help="generate synthetic event streams")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--preset", action="store_true", help="use the canonical desk-scale rig")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_simulate, format_default="binary")

    p = sub.add_parser("extract", parents=[common], help="extract marker centers from streams")
    p.add_argument("--streams", required=True, help="directory with event streams")
    p.add_argument("--profile", choices=["calibration", "measurement"], default="calibration")
    p.add_argument("--blink-freq", type=float, default=250.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("calibrate", parents=[common], help="self-calibrate from observations")
    p.add_argument("--observations", required=True)
    p.add_argument("--t-th-us", type=float, default=1000.0, help="matching time threshold")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("measure", parents=[common], help="triangulate a deformation series")
    p.add_argument("--calibration", required=True)
    p.add_argument("--observations", required=True)
    p.add_argument("--anchor", default=None, help="baseline:camA,camB:mm or none")
    p.add_argument("--t-th-us", type=float, default=1000.0)
    p.add_argument("--residual-threshold", type=float, default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("verify", parents=[common], help="run the acceptance checks")
    p.add_argument("--out", default=None)
    p.add_argument("--skip-determinism", action="store_true",
                   help="skip the second pass that checks report determinism")
    p.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "format", None) is None:
        args.format = getattr(args, "format_default", None)
    try:
        if args.seed is not None and args.seed < 0:
            raise ConfigError(f"--seed must be non-negative, got {args.seed}")
        return args.func(args)
    except (ConfigError, ParseError, BoundsError, StreamTooShort,
            InsufficientCorrespondences, EmptySeries, UnknownCamera,
            FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except EvdeformError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
