#!/usr/bin/env python3
"""Full pipeline demo on the canonical desk-scale rig.

Simulates two seconds of the blinking-marker sweep, extracts marker centers
per camera, matches them across cameras, self-calibrates the array, and
compares the result with the generating cameras. Outputs land in ./out/paper_rig.
"""
import argparse
import sys
import time
from pathlib import Path

from evdeform.calibration.pipeline import CalibrationConfig, calibrate, write_iteration_log
from evdeform.deformation import rig_from_calibration, save_rig
from evdeform.extraction import calibration_profile, extract_center_sequence, match_corresponding
from evdeform.simulator import preset_paper_rig, simulate
from evdeform.verify import truth_errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out", default="out/paper_rig")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    config = preset_paper_rig()
    print(f"simulating {config.duration_s:.1f} s at {config.blink_freq_hz:.0f} Hz ...")
    t0 = time.time()
    sim = simulate(config)
    print(f"  {sum(len(s) for s in sim.streams)} events in {time.time() - t0:.1f} s")

    profile = calibration_profile(config.blink_freq_hz)
    sequences = []
    for stream in sim.streams:
        result = extract_center_sequence(stream, profile)
        print(f"  cam{stream.camera_id}: {len(result.observations)} centers, "
              f"{result.noise_count} noise events rejected")
        sequences.append(result.observations)
    groups = match_corresponding(sequences, t_th=0.25e6 / config.blink_freq_hz)
    print(f"  {len(groups)} corresponding points")

    t0 = time.time()
    calibration = calibrate(groups, CalibrationConfig(seed=args.seed))
    print(f"calibrated in {time.time() - t0:.1f} s")
    for cid in calibration.camera_ids:
        intr, _ = calibration.camera(cid)
        print(f"  cam{cid}: fx={intr.fx:8.2f} fy={intr.fy:8.2f} "
              f"mean reprojection {calibration.mean_reprojection[cid]:.4f} px")

    focal_err, rot_err = truth_errors(calibration)
    print(f"  vs truth: worst focal error {100 * focal_err:.4f}%, "
          f"worst pairwise rotation error {rot_err:.4f} deg")

    save_rig(out / "calibration.json", rig_from_calibration(calibration))
    write_iteration_log(out / "iterations.log", calibration.iterations)
    print(f"wrote {out / 'calibration.json'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
