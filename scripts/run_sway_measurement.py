#!/usr/bin/env python3
"""Measure a simulated tower sway end to end and compare with ground truth.

Calibrates the rig from a noiseless sweep, simulates an 18.2 mm 3D sway,
runs extraction, matching and triangulation, anchors the scale on the known
camera baseline, and reports the recovered amplitude and per-axis accuracy.
"""
import argparse
import sys
from pathlib import Path

import numpy as np

from evdeform.calibration.pipeline import CalibrationConfig, calibrate
from evdeform.deformation import MeasureConfig, measure_deformation, write_series, write_summary
from evdeform.extraction import extract_center_sequence, match_corresponding, measurement_profile
from evdeform.simulator import preset_paper_rig, simulate, sway_scene, truth_correspondences
from evdeform.verify import anchored_rig


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/sway")
    parser.add_argument("--amplitude-mm", type=float, default=18.2)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    print("calibrating from a noiseless sweep ...")
    groups = truth_correspondences(preset_paper_rig(), 400, 0.0, args.seed)
    rig = anchored_rig(calibrate(groups, CalibrationConfig(seed=args.seed)))

    scenario = sway_scene(args.seed + 101, args.amplitude_mm)
    print(f"simulating a {args.amplitude_mm:.1f} mm sway ...")
    sim = simulate(scenario)
    sequences = [
        extract_center_sequence(s, measurement_profile(scenario.blink_freq_hz)).observations
        for s in sim.streams
    ]
    matched = match_corresponding(sequences, t_th=0.25e6 / scenario.blink_freq_hz)
    series = measure_deformation(rig, matched, MeasureConfig(residual_threshold_px=1.0))
    write_series(out / "series.csv", series)
    write_summary(out / "summary.json", series)

    truth = scenario.trajectory.positions(series.t_us * 1e-6) - scenario.trajectory.center
    truth_ref = truth @ scenario.cameras[0][1].rotation.T
    rmse = np.sqrt(np.mean((series.displacements - truth_ref) ** 2, axis=0))
    print(f"  samples: {len(series)} ({series.dropped} dropped)")
    print(f"  recovered amplitude: {series.max_amplitude:.3f} mm "
          f"(truth {args.amplitude_mm:.1f} mm)")
    print(f"  per-axis RMSE: {rmse[0]:.3f} / {rmse[1]:.3f} / {rmse[2]:.3f} mm")
    print(f"wrote {out / 'series.csv'} and {out / 'summary.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
