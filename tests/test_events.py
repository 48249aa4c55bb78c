"""Event stream model and bit-exact file round trips."""
import numpy as np
import pytest

from evdeform.errors import BoundsError, ParseError
from evdeform.events import (
    EventStream,
    concat_streams,
    make_stream,
    read_stream,
    slice_by_time,
    write_stream,
)


def random_stream(n, seed=0, width=1280, height=720, camera_id=0):
    rng = np.random.default_rng(seed)
    t = np.sort(rng.integers(0, 10_000_000, n))
    return EventStream(
        camera_id,
        width,
        height,
        t,
        rng.integers(0, width, n),
        rng.integers(0, height, n),
        rng.random(n) < 0.5,
    )


class TestReadWrite:
    def test_single_csv_record(self, tmp_path):
        path = tmp_path / "one.csv"
        path.write_text("t_us,x,y,polarity\n5,100,200,1\n")
        stream, warnings = read_stream(path, "csv", sensor=(1280, 720))
        assert len(stream) == 1
        assert (stream.t[0], stream.x[0], stream.y[0], stream.polarity[0]) == (5, 100, 200, True)
        assert warnings == 0

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("t_us,x,y,polarity\n")
        stream, warnings = read_stream(path, "csv", sensor=(1280, 720))
        assert len(stream) == 0
        assert warnings == 0

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_large_random_round_trip(self, tmp_path, fmt):
        stream = random_stream(1_000_000, seed=3)
        path = tmp_path / f"big.{fmt}"
        write_stream(stream, path, fmt)
        loaded, warnings = read_stream(path, fmt, sensor=(1280, 720))
        assert warnings == 0
        np.testing.assert_array_equal(loaded.t, stream.t)
        np.testing.assert_array_equal(loaded.x, stream.x)
        np.testing.assert_array_equal(loaded.y, stream.y)
        np.testing.assert_array_equal(loaded.polarity, stream.polarity)

    def test_out_of_order_input_sorted_with_warnings(self, tmp_path):
        path = tmp_path / "unsorted.csv"
        path.write_text("t_us,x,y,polarity\n10,1,1,1\n5,2,2,0\n7,3,3,1\n")
        stream, warnings = read_stream(path, "csv", sensor=(1280, 720))
        assert warnings == 1  # one record arrived before its predecessor
        np.testing.assert_array_equal(stream.t, [5, 7, 10])

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,x,y,polarity\n5,abc,200,1\n")
        with pytest.raises(ParseError, match="bad.csv:2"):
            read_stream(path, "csv", sensor=(1280, 720))

    def test_bad_polarity(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("t_us,x,y,polarity\n5,1,1,3\n")
        with pytest.raises(ParseError):
            read_stream(path, "csv", sensor=(1280, 720))

    def test_bounds_error(self, tmp_path):
        path = tmp_path / "oob.csv"
        path.write_text("t_us,x,y,polarity\n5,1280,1,1\n")
        with pytest.raises(BoundsError):
            read_stream(path, "csv", sensor=(1280, 720))

    def test_binary_header_carries_sensor(self, tmp_path):
        stream = random_stream(100, seed=1, width=640, height=480)
        path = tmp_path / "s.bin"
        write_stream(stream, path, "binary")
        loaded, _ = read_stream(path, "binary")
        assert loaded.sensor == (640, 480)

    def test_binary_sensor_mismatch(self, tmp_path):
        stream = random_stream(10, seed=1, width=640, height=480)
        path = tmp_path / "s.bin"
        write_stream(stream, path, "binary")
        with pytest.raises(BoundsError):
            read_stream(path, "binary", sensor=(1280, 720))

    def test_binary_bad_magic(self, tmp_path):
        path = tmp_path / "s.bin"
        path.write_bytes(b"NOTMAGIC" + bytes(8))
        with pytest.raises(ParseError):
            read_stream(path, "binary")


class TestSlice:
    def test_whole_range_is_identity(self):
        s = random_stream(500, seed=2)
        out = slice_by_time(s, int(s.t[0]), int(s.t[-1]) + 1)
        np.testing.assert_array_equal(out.t, s.t)
        np.testing.assert_array_equal(out.x, s.x)

    def test_empty_half_open_interval(self):
        s = random_stream(500, seed=2)
        assert len(slice_by_time(s, 100, 100)) == 0

    def test_matches_linear_filter_oracle(self):
        s = random_stream(2000, seed=5)
        rng = np.random.default_rng(9)
        for _ in range(10):
            t0, t1 = sorted(rng.integers(0, 10_000_000, 2))
            out = slice_by_time(s, int(t0), int(t1))
            mask = (s.t >= t0) & (s.t < t1)
            np.testing.assert_array_equal(out.t, s.t[mask])
            np.testing.assert_array_equal(out.x, s.x[mask])
            np.testing.assert_array_equal(out.y, s.y[mask])
            np.testing.assert_array_equal(out.polarity, s.polarity[mask])

    def test_inverted_interval_rejected(self):
        s = random_stream(10, seed=2)
        with pytest.raises(ValueError):
            slice_by_time(s, 10, 5)

    def test_partition_concat_reconstructs(self):
        s = random_stream(3000, seed=8)
        lo, hi = int(s.t[0]), int(s.t[-1]) + 1
        cuts = [lo, lo + (hi - lo) // 4, lo + (hi - lo) // 2, hi]
        parts = [slice_by_time(s, a, b) for a, b in zip(cuts, cuts[1:])]
        merged = concat_streams(parts)
        np.testing.assert_array_equal(merged.t, s.t)
        np.testing.assert_array_equal(merged.x, s.x)
        np.testing.assert_array_equal(merged.y, s.y)
        np.testing.assert_array_equal(merged.polarity, s.polarity)


class TestStreamModel:
    def test_non_decreasing_timestamps_enforced(self):
        with pytest.raises(ValueError):
            EventStream(0, 10, 10, [5, 3], [0, 0], [0, 0], [True, True])

    def test_pixel_bounds_enforced(self):
        with pytest.raises(BoundsError):
            EventStream(0, 10, 10, [1, 2], [0, 10], [0, 0], [True, True])

    def test_make_stream_sorts_stably(self):
        stream, warnings = make_stream(
            0, 10, 10, [5, 5, 3], [2, 1, 0], [0, 0, 0], [True, False, True]
        )
        assert warnings >= 1
        np.testing.assert_array_equal(stream.t, [3, 5, 5])
        np.testing.assert_array_equal(stream.x, [0, 1, 2])
