"""Tests of the benchmark itself, on scenes much shorter than the real ones.

Run from the repository root: python -m pytest perfbench/tests
"""
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
from evdeform.calibration import CalibrationConfig, calibrate
from evdeform.extraction import calibration_profile
from evdeform.geometry import CameraIntrinsics
from tracing import Tracer
import workloads
from workloads import (
    SwayRecording,
    SweepCalibration,
    reference_tracks,
)

SPEC = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

TINY = {
    "sweep_calibration": lambda d, t: SweepCalibration(0, d, t, sweep_s=1.0, pole_s=0.4),
    "sway_recording": lambda d, t: SwayRecording(0, d, t, duration_s=1.0),
}


def test_workloads_match_the_spec():
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(TINY)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in SPEC["per_layer"]} == {
        k: v[:2] for k, v in run.PER_LAYER.items()
    }


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(tmp_path, name, trace):
    tracer = Tracer()
    workload = TINY[name](tmp_path, tracer)
    result, passes, _ = run.run(workload, tracer, 0.0, trace)
    section = "per_layer" if trace else "end_to_end"
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(np.isfinite(v["value"]) for v in result["metrics"].values())
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    if not trace:
        assert all(result["metrics"][k]["value"] > 0 for k in expected)
    json.dumps(result)


def test_main_prints_the_result_last(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(run, "WORK", tmp_path)
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(workloads.WORKLOADS, "sway_recording",
                        lambda seed, d, t: SwayRecording(seed, d, t, duration_s=1.0))
    assert run.main(["--workload", "sway_recording", "--seed", "5", "--seconds", "0"]) == 0
    last = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert sorted(last) == ["attempted", "correct", "failed", "metrics"]
    assert last["correct"] is True and last["failed"] == 0


def test_unknown_workload_is_refused(capsys):
    assert run.main(["--workload", "nope", "--seed", "1", "--seconds", "1"]) == 2
    assert capsys.readouterr().out == ""


# ---------------------------------------------------------------------------
# checkers flag corrupted inputs
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def recorded(tmp_path_factory):
    workload = SwayRecording(3, tmp_path_factory.mktemp("sway"), Tracer(), duration_s=0.3)
    workload.setup()
    return workload, workload._sim


def test_recording_checks_pass_on_the_program_output(recorded):
    workload, sim = recorded
    workload._sim = sim
    assert workload.check_recording().problems == []
    assert workload._sim is None


def test_csv_checker_flags_one_changed_timestamp(recorded, tmp_path):
    workload, sim = recorded
    stream, path = sim.streams[0], workload.files[0]
    lines = path.read_text().splitlines()
    t, rest = lines[10].split(",", 1)
    lines[10] = f"{int(t) + 1},{rest}"
    bad = tmp_path / "bad.csv"
    bad.write_text("\n".join(lines) + "\n")
    assert checks.check_csv_matches(path, stream.t, stream.x, stream.y, stream.polarity) == []
    assert checks.check_csv_matches(bad, stream.t, stream.x, stream.y, stream.polarity)


def test_refractory_checker_flags_a_close_repeat(recorded):
    stream = recorded[1].streams[0]
    t = np.append(stream.t, stream.t[0] + 10)
    x = np.append(stream.x, stream.x[0])
    y = np.append(stream.y, stream.y[0])
    assert checks.check_refractory("cam", t, x, y)


def test_footprint_and_noise_checkers_flag_bad_events(recorded):
    workload, sim = recorded
    ref = reference_tracks(workload.config)
    stream, labels = sim.streams[0], sim.truth.labels[0]
    marker = labels == 0
    x = stream.x.copy()
    x[np.flatnonzero(marker)[0]] += 20
    args = (ref.transition_t_us, ref.track_px[0], ref.radius_px[0], 0.25, 1.0)
    assert checks.check_marker_footprint("cam", stream.t, stream.x, stream.y, marker, *args) == []
    assert checks.check_marker_footprint("cam", stream.t, x, stream.y, marker, *args)
    assert checks.check_noise_count("cam", 1000, 1000.0) == []
    assert checks.check_noise_count("cam", 1200, 1000.0)


@pytest.fixture(scope="module")
def calibrated(tmp_path_factory):
    workload = SweepCalibration(0, tmp_path_factory.mktemp("sweep"), Tracer(), sweep_s=1.0, pole_s=0.4)
    workload.setup()
    streams = workload._read(workload.files, "binary", workload.sensor)
    sequences, groups = workload._extract_match(streams, calibration_profile(250.0))
    return workload, sequences, calibrate(groups, CalibrationConfig(seed=3))


def test_center_checker_flags_a_center_moved_20px(calibrated):
    workload, sequences, _ = calibrated
    ref = reference_tracks(workload.config)
    seq = sequences[0]
    pixels = np.array([o.pixel for o in seq])
    times = [o.t_c for o in seq]
    err, radii = checks.center_errors(pixels, times, ref.transition_t_us, ref.track_px[0], ref.radius_px[0])
    assert checks.check_centers_in_disk("cam", err, radii) == []
    assert checks.check_center_error("cam", err) == []
    pixels[5] += (20.0, 0.0)
    err, radii = checks.center_errors(pixels, times, ref.transition_t_us, ref.track_px[0], ref.radius_px[0])
    assert checks.check_centers_in_disk("cam", err, radii)
    assert checks.check_center_error("cam", err + 20.0)


def test_reprojection_checker_flags_a_rig_with_5pct_focal_error(calibrated):
    _, _, result = calibrated
    assert checks.check_reprojection(checks.reprojection_per_camera(result)) == []
    off = dataclasses.replace(
        result, intrinsics=tuple(i.with_focal(1.05 * i.fx, 1.05 * i.fy) for i in result.intrinsics)
    )
    assert checks.check_reprojection(checks.reprojection_per_camera(off))


def test_pole_and_sway_checkers_flag_out_of_bound_figures():
    assert checks.check_pole(0.0009) == []
    assert checks.check_pole(0.0011)
    t = np.arange(10.0) * 2000.0
    a = np.zeros((10, 3))
    b = a + (0.0, 1001.0, 0.0)
    assert checks.pole_relative_error(t, a, t + 20.0, b, 1000.0) == pytest.approx(0.001)
    assert checks.check_sway(np.array([0.2, 0.3, 0.4]), 990, 1000) == []
    assert checks.check_sway(np.array([0.2, 0.6, 0.4]), 1000, 1000)
    assert checks.check_sway(np.array([0.2, 0.3, 0.4]), 989, 1000)


# ---------------------------------------------------------------------------
# host-speed scaling
# ---------------------------------------------------------------------------

def test_scaling_divides_by_the_kernel_times_around_each_pass():
    refs = [run.REFERENCE_S, 2 * run.REFERENCE_S, 2 * run.REFERENCE_S]
    assert run.scaled([3.0, 4.0], refs) == pytest.approx([2.0, 2.0])
    # a host twice as slow doubles passes and kernel alike: same result
    assert run.scaled([6.0, 8.0], [2 * r for r in refs]) == pytest.approx([2.0, 2.0])


def test_end_to_end_run_records_a_kernel_time_around_every_pass(tmp_path):
    tracer = Tracer()
    _, passes, _ = run.run(TINY["sway_recording"](tmp_path, tracer), tracer, 0.0, False)
    refs = passes["reference_s"]
    assert len(refs["setup"]) == passes["setup"] + 1
    assert len(refs["passes"]) == passes["timed"] + 1
    assert all(r > 0 for r in refs["setup"] + refs["passes"])


# ---------------------------------------------------------------------------
# tracing
# ---------------------------------------------------------------------------

def test_self_time_subtracts_child_spans():
    tracer = Tracer()
    tracer.spans = [
        ["outer", 0.0, 10.0, -1, 0],
        ["inner", 1.0, 4.0, 0, 0],
        ["inner", 5.0, 7.0, 0, 0],
        ["leaf", 2.0, 3.0, 1, 0],
    ]
    times = tracer.self_times()
    assert times["outer"] == {"calls": 1, "total_s": 10.0, "self_s": 5.0}
    assert times["inner"]["self_s"] == pytest.approx(4.0)
    assert times["leaf"]["self_s"] == pytest.approx(1.0)


def test_tracing_wraps_and_restores_inner_functions():
    import evdeform.calibration.pipeline as pipeline
    import evdeform.deformation as deformation

    before = (pipeline.bundle_adjust, deformation.undistort_pixels)
    tracer = Tracer()
    with tracer.tracing(0):
        assert pipeline.bundle_adjust is not before[0]
        deformation.undistort_pixels(CameraIntrinsics(1.0, 1.0, 0.5, 0.5), np.zeros((1, 2)))
    assert (pipeline.bundle_adjust, deformation.undistort_pixels) == before
    assert tracer.counted("deformation.undistort_calls") == 1.0
