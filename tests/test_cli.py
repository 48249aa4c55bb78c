"""Command-line pipeline: simulate, extract, calibrate, measure."""
import json
import tempfile
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from evdeform.calibration import pipeline
from evdeform.cli import main
from evdeform.deformation import rebase_extrinsics, save_rig
from evdeform.events import EventStream, write_stream
from evdeform.geometry import CameraIntrinsics
from evdeform.simulator import (
    paper_rig_cameras,
    pole_scenes,
    preset_paper_rig,
    save_scenario,
    sway_scene,
    truth_correspondences,
)
from evdeform.verify import paired_distances


def assert_invalid_json_line(capsys, path):
    err = capsys.readouterr().err.strip().splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {path}: invalid JSON: ")


def malformed_documents(fmt):
    """JSON that parses but is not a usable document of format fmt, with
    what the one-line error must name."""
    return [
        ('{"format": "x"}', "field 'format' is 'x'"),
        (json.dumps({"format": fmt}), "missing field 'cameras'"),
        ("[1]", "expected a JSON object, got list"),
    ]


def changed_calibration(camera, field, value=float("nan"), index=None):
    """The preset rig's calibration document with one value of one camera,
    or one element of its list field, set to value (NaN by default); a
    value of None deletes the field."""
    cameras = paper_rig_cameras()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "calibration.json"
        save_rig(path, rebase_extrinsics([p for _, p in cameras], 0, [i for i, _ in cameras]))
        doc = json.loads(path.read_text())
    cam = doc["cameras"][camera]
    if value is None:
        del cam[field]
    elif index is None:
        cam[field] = value
    else:
        cam[field][index] = value
    return json.dumps(doc)


def copy_observations(src, dst, cameras="*"):
    """Copy the observation CSVs of the given cameras and extraction.json."""
    dst.mkdir()
    for path in [*src.glob(f"observations_cam{cameras}.csv"), src / "extraction.json"]:
        (dst / path.name).write_text(path.read_text())


@pytest.fixture(scope="module")
def preset_run(tmp_path_factory):
    """One preset simulation shared by the downstream command tests."""
    out = tmp_path_factory.mktemp("sim")
    code = main(["simulate", "--preset", "--out", str(out)])
    assert code == 0
    return out


class TestSimulate:
    def test_preset_writes_streams_and_manifest(self, preset_run):
        files = {p.name for p in preset_run.iterdir()}
        assert {"events_cam0.bin", "events_cam1.bin", "events_cam2.bin"} <= files
        assert "manifest.json" in files
        assert "streams.json" in files
        assert (preset_run / "ground_truth" / "trajectory.csv").exists()
        for name in ("events_cam0.bin", "events_cam1.bin", "events_cam2.bin"):
            assert (preset_run / name).stat().st_size > 1000

    def test_zero_duration_scenario_exits_2(self, tmp_path):
        bad = replace(preset_paper_rig(), duration_s=0.2)
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, bad)
        doc = json.loads(scenario.read_text())
        doc["duration_s"] = 0.0
        scenario.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == 2

    def test_invalid_scenario_json_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        scenario.write_text("{bad")
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_invalid_json_line(capsys, scenario)

    @pytest.mark.parametrize("text,named", malformed_documents("evdeform-scenario"))
    def test_malformed_scenario_exits_2(self, tmp_path, capsys, text, named):
        scenario = tmp_path / "scenario.json"
        scenario.write_text(text)
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scenario}: {named}")

    def test_nonzero_edge_band_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(preset_paper_rig(), duration_s=0.2))
        doc = json.loads(scenario.read_text())
        doc["edge_band"] = 0.2
        scenario.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {scenario}: field 'edge_band' is 0.2")

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", [
        "blink_freq_hz", "duration_s", "marker_radius_mm", "noise_rate", "latency_jitter_std_us",
        "trajectory.center", "trajectory.amplitude", "trajectory.frequency_hz",
        "trajectory.phase", "trajectory.start_time", "trajectory.ramp",
    ])
    def test_non_finite_scenario_number_exits_2(self, tmp_path, capsys, field, value):
        """A NaN or infinite number is refused before anything is simulated
        (an infinite marker radius would fill the sensor at every burst)."""
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(sway_scene(seed=0), duration_s=0.2))
        doc = json.loads(scenario.read_text())
        *parents, name = field.split(".")
        owner = doc[parents[0]] if parents else doc
        owner[name] = [value, *owner[name][1:]] if isinstance(owner[name], list) else value
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and f"{name} must be" in err[0] and "finite" in err[0]
        assert not (out / "streams.json").exists()

    def test_oversized_marker_exits_2(self, tmp_path, capsys):
        """A finite but huge marker radius fills the sensor at every burst;
        it is refused before any burst is expanded."""
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(sway_scene(seed=0), duration_s=0.2,
                                        marker_radius_mm=1e300))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "more than the 33554432 one camera may fire" in err[0]
        assert not (out / "streams.json").exists()

    @pytest.mark.parametrize("edit,named", [
        (lambda doc: doc["cameras"][1].pop("k1"), "missing field 'k1'"),
        (lambda doc: doc["cameras"][0].update(width=1280.5),
         "malformed field: sensor width and height must be integers, got 1280.5 and 720"),
        (lambda doc: doc["trajectory"].update(amplitude=[1, 2]),
         "Sinusoid3DTrajectory amplitude must be numbers of shape (3), got (1, 2)"),
        (lambda doc: doc.update(trajectory={"type": "waypoint-spline", "times": [0, 1],
                                            "points": [[0, 0], [1, 1]]}),
         "WaypointSplineTrajectory points must be numbers of shape (n, 3), got ((0, 0), (1, 1))"),
        (lambda doc: doc["trajectory"].pop("center"), "missing field 'center'"),
        (lambda doc: doc.pop("noise_rate"), "missing field 'noise_rate'"),
    ], ids=["no-k1", "fractional-width", "short-amplitude", "two-column-points", "no-center",
            "no-noise-rate"])
    def test_bad_scenario_field_exits_2(self, tmp_path, capsys, edit, named):
        """A camera record needs every key and integer sensor sizes, and
        each trajectory field its shape: each is refused, naming it."""
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(preset_paper_rig(), duration_s=0.2))
        doc = json.loads(scenario.read_text())
        edit(doc)
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and named in err[0]
        assert not (out / "streams.json").exists()

    def test_negative_seed_flag_exits_2(self, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["simulate", "--preset", "--seed", "-1", "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --seed must be non-negative, got -1"]
        assert not out.exists()

    def test_negative_scenario_seed_exits_2(self, tmp_path, capsys):
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(preset_paper_rig(), duration_s=0.2))
        doc = json.loads(scenario.read_text())
        doc["seed"] = -3
        scenario.write_text(json.dumps(doc))
        out = tmp_path / "o"
        code = main(["simulate", "--scenario", str(scenario), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: seed must be a non-negative integer, got -3"]
        assert not (out / "streams.json").exists()

    @pytest.mark.parametrize("sensor,fields,named", [
        # the binary header and the streams' uint16 pixel columns hold a sensor side in 16 bits
        ((70000, 720), {"duration_s": 0.2},
         "sensor 70000x720 out of range: width and height must be 1 to at most 65535"),
        # (t + 1) * width * height must fit int64 for the event sort; the
        # widest sensor overflows it from about 2147.5 s on
        ((65535, 65535), {"noise_rate": 0.0, "duration_s": 2201.0, "blink_freq_hz": 1 / 2200},
         "camera 0: a 2201 s recording on a 65535x65535 sensor overflows"),
    ], ids=["binary_header", "sort_key"])
    def test_oversized_sensor_exits_2(self, tmp_path, capsys, sensor, fields, named):
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(preset_paper_rig(), **fields))
        doc = json.loads(scenario.read_text())
        for cam in doc["cameras"]:
            cam["width"], cam["height"] = sensor
        scenario.write_text(json.dumps(doc))
        code = main(["simulate", "--scenario", str(scenario), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {named}")

    def test_same_seed_identical_files(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(preset_paper_rig(), duration_s=0.2))
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", str(scenario), "--out", str(out2)]) == 0
        for name in ("events_cam0.bin", "events_cam1.bin", "events_cam2.bin"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()

    def test_csv_format_flag(self, tmp_path):
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, replace(preset_paper_rig(), duration_s=0.1))
        out = tmp_path / "csv"
        assert main(
            ["simulate", "--scenario", str(scenario), "--out", str(out), "--format", "csv"]
        ) == 0
        header = (out / "events_cam0.csv").read_text().splitlines()[0]
        assert header == "t_us,x,y,polarity"


class TestExtract:
    def test_observation_counts_track_transitions(self, preset_run, tmp_path):
        """Each profile, recorded in extraction.json, gives one observation
        per blink transition."""
        transitions = 2 * 250 * 2  # two seconds of the preset at 250 Hz
        for profile in ("calibration", "measurement"):
            out = tmp_path / profile
            code = main(
                ["extract", "--streams", str(preset_run), "--profile", profile, "--out", str(out)]
            )
            assert code == 0
            info = json.loads((out / "extraction.json").read_text())
            assert info["profile"] == profile
            for cam in info["cameras"].values():
                assert cam["observations"] == transitions

    def test_empty_stream_exits_2(self, tmp_path, capsys):
        streams = tmp_path / "streams"
        streams.mkdir()
        (streams / "streams.json").write_text(json.dumps({
            "format": "csv",
            "cameras": [
                {"camera_id": 0, "file": "events_cam0.csv", "width": 64, "height": 64}
            ],
        }))
        (streams / "events_cam0.csv").write_text("t_us,x,y,polarity\n")
        code = main(["extract", "--streams", str(streams), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "0 events, a burst needs 20" in capsys.readouterr().err  # read as the CSV streams.json names

    def test_missing_streams_json_exits_2(self, tmp_path, capsys):
        """Only streams.json gives the sensor size; no size is assumed."""
        streams = tmp_path / "streams"
        streams.mkdir()
        stream = EventStream(0, 640, 480, [1, 2], [3, 4], [5, 6], [True, False])
        write_stream(stream, streams / "events_cam0.csv", "csv")
        out = tmp_path / "o"
        code = main(["extract", "--streams", str(streams), "--format", "csv",
                     "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {streams / 'streams.json'}: not found")
        assert not (out / "extraction.json").exists()

    def test_invalid_streams_json_exits_2(self, tmp_path, capsys):
        streams = tmp_path / "streams"
        streams.mkdir()
        (streams / "streams.json").write_text("{bad")
        code = main(["extract", "--streams", str(streams), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_invalid_json_line(capsys, streams / "streams.json")

    @pytest.mark.parametrize(
        "row, message",
        [
            ("5,1280,1,1", "events_cam0.csv:2: pixel (1280, 1) outside sensor 1280x720"),
            ("-5,1,1,1", "events_cam0.csv:2: t_us '-5'"),
            ("1" * 23 + ",1,1,1", "events_cam0.csv:2: t_us has 23 digits"),
        ],
        ids=["out-of-sensor", "negative-timestamp", "23-digit-timestamp"],
    )
    def test_bad_csv_event_exits_2_with_one_line(self, tmp_path, capsys, row, message):
        streams = tmp_path / "streams"
        streams.mkdir()
        (streams / "streams.json").write_text(json.dumps({
            "format": "csv",
            "cameras": [
                {"camera_id": 0, "file": "events_cam0.csv", "width": 1280, "height": 720}
            ],
        }))
        (streams / "events_cam0.csv").write_text(f"t_us,x,y,polarity\n{row}\n")
        code = main(["extract", "--streams", str(streams), "--format", "csv",
                     "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and message in err[0]

    def test_binary_timestamp_beyond_int64_exits_2(self, tmp_path, capsys):
        streams = tmp_path / "streams"
        streams.mkdir()
        stream = EventStream(0, 64, 64, [1, 2], [3, 4], [5, 6], [True, False])
        write_stream(stream, streams / "events_cam0.bin", "binary")
        raw = bytearray((streams / "events_cam0.bin").read_bytes())
        raw[16:24] = (2**64 - 5).to_bytes(8, "little")
        (streams / "events_cam0.bin").write_bytes(bytes(raw))
        (streams / "streams.json").write_text(json.dumps({
            "format": "binary",
            "cameras": [
                {"camera_id": 0, "file": "events_cam0.bin", "width": 64, "height": 64}
            ],
        }))
        code = main(["extract", "--streams", str(streams), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "does not fit int64" in err[0]

    def test_pixel_beyond_int32_exits_2(self, tmp_path, capsys):
        """A pixel of 2**32 + 5, which a uint16 or int32 column wraps to 5,
        is outside even the widest sensor; a wider sensor is refused."""
        streams = tmp_path / "streams"
        streams.mkdir()
        (streams / "events_cam0.csv").write_text("0,4294967301,0,1\n")
        for side, named in (
            (65535, "events_cam0.csv:1: pixel (4294967301, 0) outside sensor 65535x65535"),
            (2**40, "sensor 1099511627776x1099511627776 out of range"),
        ):
            (streams / "streams.json").write_text(json.dumps({
                "format": "csv",
                "cameras": [
                    {"camera_id": 0, "file": "events_cam0.csv", "width": side, "height": side}
                ],
            }))
            code = main(["extract", "--streams", str(streams), "--out", str(tmp_path / "o")])
            assert code == 2
            err = capsys.readouterr().err.strip().splitlines()
            assert len(err) == 1 and named in err[0]

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[1]", "expected a JSON object, got list"),
            ('{"format": "csv"}', "missing field 'cameras'"),
            ('{"cameras": [1]}', "malformed field"),
            ('{"format": "xml", "cameras": []}', "malformed field: format 'xml'"),
        ],
        ids=["list", "no-cameras", "camera-not-object", "unknown-format"],
    )
    def test_malformed_streams_json_exits_2(self, tmp_path, capsys, text, named):
        streams = tmp_path / "streams"
        streams.mkdir()
        (streams / "streams.json").write_text(text)
        code = main(["extract", "--streams", str(streams), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {streams / 'streams.json'}: {named}")

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--blink-freq", "0"], "blink frequency"),
            (["--blink-freq", "-250"], "blink frequency"),
            (["--blink-freq", "nan"], "blink frequency"),
            (["--blink-freq", "inf"], "blink frequency"),
        ],
        ids=["blink-zero", "blink-negative", "blink-nan", "blink-inf"],
    )
    def test_bad_settings_exit_2(self, preset_run, tmp_path, capsys, flags, named):
        out = tmp_path / "o"
        code = main(["extract", "--streams", str(preset_run), "--out", str(out), *flags])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: ") and named in err[0]
        assert not (out / "extraction.json").exists()

    def test_extraction_json_records_sensor_and_diagnostics(self, observations):
        info = json.loads((observations / "extraction.json").read_text())
        for cam in info["cameras"].values():
            assert (cam["width"], cam["height"]) == (1280, 720)
            assert 0 < cam["window_spread_us_median"] <= cam["window_spread_us_max"]
            assert 0 < cam["center_bbox_sensor_share"] < 1


@pytest.fixture(scope="module")
def observations(preset_run, tmp_path_factory):
    out = tmp_path_factory.mktemp("obs")
    assert main(
        ["extract", "--streams", str(preset_run), "--profile", "calibration",
         "--out", str(out)]
    ) == 0
    return out


class TestCalibrate:
    def test_end_to_end_reprojection_under_target(self, observations, tmp_path):
        out = tmp_path / "cal"
        code = main(
            ["calibrate", "--observations", str(observations), "--out", str(out),
             "--seed", "3"]
        )
        assert code == 0
        log_lines = (out / "iterations.log").read_text().splitlines()
        last = json.loads(log_lines[-1])
        assert all(v < 0.3 for v in last["mean_reprojection_px"].values())
        assert (out / "calibration.json").exists()
        assert (out / "manifest.json").exists()

    def test_single_camera_exits_2(self, observations, tmp_path, capsys):
        single = tmp_path / "single"
        copy_observations(observations, single, cameras="0")
        code = main(["calibrate", "--observations", str(single), "--out", str(tmp_path / "o")])
        assert code == 2
        assert "need observations from >= 2 cameras" in capsys.readouterr().err

    def test_missing_extraction_json_exits_2(self, observations, tmp_path, capsys):
        """Only extraction.json gives the sensor size; no size is assumed."""
        obs = tmp_path / "obs"
        copy_observations(observations, obs)
        (obs / "extraction.json").unlink()
        out = tmp_path / "o"
        code = main(["calibrate", "--observations", str(obs), "--out", str(out)])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {obs / 'extraction.json'}: not found")
        assert not (out / "calibration.json").exists()

    def test_unreachable_target_exits_1_with_best_effort(self, observations, tmp_path,
                                                          monkeypatch):
        monkeypatch.setattr(pipeline, "REPROJ_TARGET", 1e-12)
        out = tmp_path / "cal"
        code = main(
            ["calibrate", "--observations", str(observations), "--out", str(out),
             "--seed", "3"]
        )
        assert code == 1
        assert (out / "calibration.json").exists()  # best-so-far still written

    def test_config_flag_exits_2(self, observations, tmp_path, capsys):
        """The calibration recipe has no overrides; --config is not a flag."""
        overrides = tmp_path / "config.json"
        overrides.write_text(json.dumps({"reproj_target": 0.3}))
        out = tmp_path / "cal"
        with pytest.raises(SystemExit) as exc:
            main(["calibrate", "--observations", str(observations), "--out", str(out),
                  "--config", str(overrides)])
        assert exc.value.code == 2
        assert "unrecognized arguments: --config" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_exits_2(self, observations, tmp_path, capsys):
        out = tmp_path / "cal"
        code = main(["calibrate", "--observations", str(observations), "--out", str(out),
                     "--seed", "-5"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --seed must be non-negative, got -5"]
        assert not out.exists()

    def test_invalid_extraction_json_exits_2(self, observations, tmp_path, capsys):
        obs = tmp_path / "obs"
        obs.mkdir()
        for path in observations.glob("observations_cam*.csv"):
            (obs / path.name).write_text(path.read_text())
        (obs / "extraction.json").write_text("{bad")
        code = main(["calibrate", "--observations", str(obs), "--out", str(tmp_path / "o")])
        assert code == 2
        assert_invalid_json_line(capsys, obs / "extraction.json")

    @pytest.mark.parametrize(
        "text, named",
        [
            ("[1]", "expected a JSON object, got list"),
            ('{"cameras": [1]}', "malformed field"),
            ('{"cameras": {"0": {"width": "wide", "height": 720}}}', "malformed field"),
        ],
        ids=["list", "camera-list", "width-not-integer"],
    )
    def test_malformed_extraction_json_exits_2(self, observations, tmp_path, capsys, text, named):
        obs = tmp_path / "obs"
        obs.mkdir()
        for path in observations.glob("observations_cam*.csv"):
            (obs / path.name).write_text(path.read_text())
        (obs / "extraction.json").write_text(text)
        code = main(["calibrate", "--observations", str(obs), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {obs / 'extraction.json'}: {named}")

    @pytest.mark.parametrize(
        "row, named",
        [
            ("0,99999999,1.0,2.0,5,1.0,1.0", "expected 5 fields, got 7"),
            ("0,99999999,abc,2.0,5", "x 'abc' is not a number"),
            ("0,12:00,1.0,2.0,5", "t_us '12:00' is not a number"),
            ("0,99999999,1.0,nan,5", "y 'nan' is not finite"),
            ("0,99999999,1.0,2.0,0", "n 0 is below 1"),
            ("0,1,1.0,2.0,5", "t_us 1 is earlier than the previous row's"),
            ("2,99999999,1.0,2.0,5", "camera_id 2 differs from the first row's 0"),
        ],
        ids=["7-fields", "x-abc", "t-not-number", "y-nan", "n-zero", "t-decreasing",
             "other-camera"],
    )
    def test_malformed_observations_exit_2(self, observations, tmp_path, capsys, row, named):
        obs = tmp_path / "obs"
        copy_observations(observations, obs)
        bad = obs / "observations_cam0.csv"
        lines = bad.read_text().splitlines() + [row]
        bad.write_text("\n".join(lines) + "\n")
        code = main(["calibrate", "--observations", str(obs), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {bad}:{len(lines)}: {named}")

    def test_camera_in_two_files_exits_2(self, observations, tmp_path, capsys):
        obs = tmp_path / "obs"
        copy_observations(observations, obs)
        (obs / "observations_cam9.csv").write_text((obs / "observations_cam0.csv").read_text())
        code = main(["calibrate", "--observations", str(obs), "--out", str(tmp_path / "o")])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {obs}: a camera id repeats")

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_matching_threshold_exits_2(self, observations, tmp_path, capsys, value):
        out = tmp_path / "o"
        code = main(["calibrate", "--observations", str(observations), "--out", str(out),
                     "--t-th-us", value])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --t-th-us must be finite and positive")
        assert not (out / "calibration.json").exists()

    def test_principal_point_follows_the_extracted_sensor(self, tmp_path):
        config = preset_paper_rig()
        small = CameraIntrinsics(900.0, 900.0, 319.5, 239.5, width=640, height=480)
        config = replace(config, cameras=tuple((small, pose) for _, pose in config.cameras),
                         duration_s=1.0)
        scenario = tmp_path / "scenario.json"
        save_scenario(scenario, config)
        sim, obs, cal = tmp_path / "sim", tmp_path / "obs", tmp_path / "cal"
        assert main(["simulate", "--scenario", str(scenario), "--out", str(sim)]) == 0
        assert main(["extract", "--streams", str(sim), "--out", str(obs)]) == 0
        assert main(["calibrate", "--observations", str(obs), "--out", str(cal),
                     "--seed", "3"]) in (0, 1)
        for cam in json.loads((cal / "calibration.json").read_text())["cameras"]:
            assert (cam["cx"], cam["cy"], cam["width"], cam["height"]) == (319.5, 239.5, 640, 480)

    def test_rerun_identical_calibration(self, observations, tmp_path):
        out1, out2 = tmp_path / "c1", tmp_path / "c2"
        assert main(["calibrate", "--observations", str(observations), "--out",
                     str(out1), "--seed", "3"]) == 0
        assert main(["calibrate", "--observations", str(observations), "--out",
                     str(out2), "--seed", "3"]) == 0
        a = json.loads((out1 / "calibration.json").read_text())
        b = json.loads((out2 / "calibration.json").read_text())
        assert a == b


@pytest.fixture(scope="module")
def sway_setup(preset_run, observations, tmp_path_factory):
    """Calibrated rig plus a sway recording to measure."""
    root = tmp_path_factory.mktemp("measure")
    cal = root / "cal"
    assert main(["calibrate", "--observations", str(observations), "--out", str(cal),
                 "--seed", "3"]) == 0

    scen = root / "sway.json"
    save_scenario(scen, sway_scene(31))
    sway_sim = root / "sway_sim"
    assert main(["simulate", "--scenario", str(scen), "--out", str(sway_sim)]) == 0
    sway_obs = root / "sway_obs"
    assert main(["extract", "--streams", str(sway_sim), "--profile", "measurement",
                 "--out", str(sway_obs)]) == 0
    return root, cal, sway_obs


class TestMeasure:
    def test_amplitude_within_two_percent(self, sway_setup, tmp_path):
        root, cal, sway_obs = sway_setup
        out = tmp_path / "series"
        code = main(
            ["measure", "--calibration", str(cal / "calibration.json"),
             "--observations", str(sway_obs), "--anchor", "baseline:0,1:4640",
             "--out", str(out)]
        )
        assert code == 0
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metric_units"] is True
        assert abs(summary["max_amplitude"] - 18.2) / 18.2 < 0.02
        lines = (out / "series.csv").read_text().splitlines()
        assert lines[0] == "t_us,X,Y,Z,residual_px,cameras"
        assert len(lines) > 500

    def test_missing_anchor_warns_and_emits_internal_units(self, sway_setup, tmp_path, capsys):
        root, cal, sway_obs = sway_setup
        out = tmp_path / "series"
        code = main(
            ["measure", "--calibration", str(cal / "calibration.json"),
             "--observations", str(sway_obs), "--out", str(out)]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "internal units" in captured.err
        summary = json.loads((out / "summary.json").read_text())
        assert summary["metric_units"] is False

    def test_invalid_calibration_json_exits_2(self, observations, tmp_path, capsys):
        calibration = tmp_path / "calibration.json"
        calibration.write_text("{bad")
        code = main(
            ["measure", "--calibration", str(calibration),
             "--observations", str(observations), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert_invalid_json_line(capsys, calibration)

    @pytest.mark.parametrize(
        "text,named",
        malformed_documents("evdeform-calibration") + [
            pytest.param(changed_calibration(2, "T", index=1), "malformed field", id="nan-T"),
            pytest.param(changed_calibration(1, "k1"), "malformed field", id="nan-k1"),
            pytest.param(changed_calibration(1, "k1", None), "missing field 'k1'", id="no-k1"),
            pytest.param(changed_calibration(0, "width", 1280.5),
                         "malformed field: sensor width and height must be integers",
                         id="fractional-width"),
            pytest.param(changed_calibration(0, "T", [1.0, 0.0, 0.0]),
                         "malformed field: reference camera pose must be identity",
                         id="moved-reference"),
        ],
    )
    def test_malformed_calibration_exits_2(self, observations, tmp_path, capsys, text, named):
        calibration = tmp_path / "calibration.json"
        calibration.write_text(text)
        code = main(
            ["measure", "--calibration", str(calibration),
             "--observations", str(observations), "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {calibration}: {named}")

    def test_empty_observations_exits_2(self, sway_setup, tmp_path):
        root, cal, _ = sway_setup
        empty = tmp_path / "none"
        empty.mkdir()
        code = main(
            ["measure", "--calibration", str(cal / "calibration.json"),
             "--observations", str(empty), "--out", str(tmp_path / "o")]
        )
        assert code == 2

    def test_anchor_camera_outside_rig_exits_2(self, sway_setup, tmp_path, capsys):
        root, cal, sway_obs = sway_setup
        code = main(
            ["measure", "--calibration", str(cal / "calibration.json"),
             "--observations", str(sway_obs), "--anchor", "baseline:0,7:4640",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "7" in err[0]

    def test_malformed_anchor_exits_2(self, sway_setup, tmp_path, capsys):
        root, cal, sway_obs = sway_setup
        code = main(
            ["measure", "--calibration", str(cal / "calibration.json"),
             "--observations", str(sway_obs), "--anchor", "baseline:0,x:4640",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        assert len(capsys.readouterr().err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "anchor",
        ["baseline:0,1:-5", "baseline:0,1:0", "baseline:0,1:nan", "baseline:0,1:inf",
         "baseline:0,0:4640"],
        ids=["negative", "zero", "nan", "inf", "same-camera"],
    )
    def test_bad_anchor_values_exit_2(self, sway_setup, tmp_path, capsys, anchor):
        root, cal, sway_obs = sway_setup
        out = tmp_path / "o"
        code = main(
            ["measure", "--calibration", str(cal / "calibration.json"),
             "--observations", str(sway_obs), "--anchor", anchor, "--out", str(out)]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: bad anchor spec {anchor!r}")
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_matching_threshold_exits_2(self, sway_setup, tmp_path, capsys, value):
        root, cal, sway_obs = sway_setup
        out = tmp_path / "o"
        code = main(["measure", "--calibration", str(cal / "calibration.json"),
                     "--observations", str(sway_obs), "--anchor", "baseline:0,1:4640",
                     "--out", str(out), "--t-th-us", value])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and err[0].startswith("error: --t-th-us must be finite and positive")
        assert not (out / "series.csv").exists()

    @pytest.mark.parametrize("value", ["0", "-1", "nan", "inf"])
    def test_bad_residual_threshold_exits_2(self, sway_setup, tmp_path, capsys, value):
        root, cal, sway_obs = sway_setup
        out = tmp_path / "o"
        code = main(["measure", "--calibration", str(cal / "calibration.json"),
                     "--observations", str(sway_obs), "--anchor", "baseline:0,1:4640",
                     "--out", str(out), "--residual-threshold", value])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1
        assert err[0].startswith("error: --residual-threshold must be finite and positive")
        assert not (out / "series.csv").exists()

    def test_observations_from_camera_outside_rig_exit_2(self, sway_setup, tmp_path, capsys):
        root, cal, sway_obs = sway_setup
        obs = tmp_path / "obs"
        obs.mkdir()
        for path in sway_obs.glob("observations_cam*.csv"):
            (obs / path.name).write_text(path.read_text())
        header, *rows = (sway_obs / "observations_cam0.csv").read_text().splitlines()
        (obs / "observations_cam7.csv").write_text(
            "\n".join([header] + ["7" + row[row.index(","):] for row in rows]) + "\n"
        )
        code = main(
            ["measure", "--calibration", str(cal / "calibration.json"),
             "--observations", str(obs), "--anchor", "baseline:0,1:4640",
             "--out", str(tmp_path / "o")]
        )
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert len(err) == 1 and "7" in err[0]


# the flags of each command, as argparse names them
COMMAND_FLAGS = {
    "simulate": {"seed", "format", "scenario", "preset", "out"},
    "extract": {"format", "streams", "profile", "blink_freq", "out"},
    "calibrate": {"seed", "observations", "t_th_us", "out"},
    "measure": {"calibration", "observations", "anchor", "t_th_us", "residual_threshold", "out"},
    "verify": {"seed", "out", "skip_determinism"},
}


def assert_manifest_records_own_flags(out_dir, command):
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["command"] == command
    assert set(manifest["arguments"]) == COMMAND_FLAGS[command]
    assert not any(" at 0x" in value for value in manifest["arguments"].values())


@pytest.fixture(scope="module")
def calibrated(sway_setup):
    return sway_setup[1]


@pytest.fixture(scope="module")
def series(sway_setup, tmp_path_factory):
    _, cal, sway_obs = sway_setup
    out = tmp_path_factory.mktemp("series")
    assert main(["measure", "--calibration", str(cal / "calibration.json"),
                 "--observations", str(sway_obs), "--out", str(out)]) == 0
    return out


class TestManifest:
    @pytest.mark.parametrize("command, output", [
        ("simulate", "preset_run"),
        ("extract", "observations"),
        ("calibrate", "calibrated"),
        ("measure", "series"),
    ], ids=["simulate", "extract", "calibrate", "measure"])
    def test_arguments_are_the_command_flags(self, request, command, output):
        assert_manifest_records_own_flags(request.getfixturevalue(output), command)


class TestVerify:
    def test_report_and_exit_code(self, tmp_path):
        out = tmp_path / "verify"
        code = main(["verify", "--out", str(out), "--seed", "0", "--skip-determinism"])
        assert code == 0
        assert_manifest_records_own_flags(out, "verify")
        report = json.loads((out / "verify_report.json").read_text())
        names = {entry["name"] for entry in report}
        assert "calibration_reprojection" in names
        assert "pole_distance" in names
        assert all(entry["passed"] for entry in report)

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "verify"
        code = main(["verify", "--out", str(out), "--seed", "-1", "--skip-determinism"])
        assert code == 2
        err = capsys.readouterr().err.strip().splitlines()
        assert err == ["error: --seed must be non-negative, got -1"]
        assert not out.exists()


class TestUsageErrors:
    """argparse's own errors: one line, exit 2, before any file is read."""

    @pytest.mark.parametrize("argv, message", [
        (["calibrate", "--observations", "obs", "--out", "o", "--seed", "abc"],
         "argument --seed: invalid int value: 'abc'"),
        (["calibrate", "--observations", "obs", "--out", "o", "--bogus"],
         "unrecognized arguments: --bogus"),
        (["calibrate", "--observations", "obs"],
         "the following arguments are required: --out"),
    ])
    def test_one_line_exit_2(self, argv, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @pytest.mark.parametrize("argv", [
        ["extract", "--streams", "s", "--out", "o", "--seed", "1"],
        ["measure", "--calibration", "c", "--observations", "obs", "--out", "o", "--seed", "1"],
        ["calibrate", "--observations", "obs", "--out", "o", "--format", "csv"],
        ["measure", "--calibration", "c", "--observations", "obs", "--out", "o",
         "--format", "csv"],
        ["verify", "--format", "csv"],
    ])
    def test_flags_a_command_does_not_read_are_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"error: unrecognized arguments: {' '.join(argv[-2:])}"
        ]


class TestPoleThroughCli:
    def test_inter_marker_distance_on_pole(self, tmp_path):
        """Two measure runs on a rigid 1000 mm pole stay within 0.1%."""
        from evdeform.calibration.pipeline import CalibrationConfig, calibrate
        from evdeform.deformation import rig_from_calibration, save_rig

        # a clean calibration document for the measure command to consume
        groups = truth_correspondences(preset_paper_rig(), 300, 0.0, 0)
        calibration = calibrate(groups, CalibrationConfig(seed=0))
        cal_path = tmp_path / "calibration.json"
        save_rig(cal_path, rig_from_calibration(calibration))

        series = []
        for name, scenario in zip("ab", pole_scenes(1.0, 5)):
            scen_path = tmp_path / f"pole_{name}.json"
            save_scenario(scen_path, scenario)
            sim_dir = tmp_path / f"sim_{name}"
            assert main(["simulate", "--scenario", str(scen_path), "--out", str(sim_dir)]) == 0
            obs_dir = tmp_path / f"obs_{name}"
            assert main(["extract", "--streams", str(sim_dir), "--profile", "measurement",
                         "--out", str(obs_dir)]) == 0
            out_dir = tmp_path / f"series_{name}"
            assert main(["measure", "--calibration", str(cal_path),
                         "--observations", str(obs_dir),
                         "--anchor", "baseline:0,1:4640", "--out", str(out_dir)]) == 0
            rows = np.loadtxt(out_dir / "series.csv", delimiter=",", skiprows=1, ndmin=2)
            series.append((rows[:, 0], rows[:, 1:4]))

        distances = paired_distances(*series[0], *series[1])
        assert len(distances) > 200
        assert abs(distances.max() - 1000.0) / 1000.0 < 0.001
