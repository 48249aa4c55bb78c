"""Event stream model and bit-exact file round trips."""
import csv
import re

import numpy as np
import pytest

from evdeform import events
from evdeform.errors import BoundsError, ParseError
from evdeform.events import (
    EventStream,
    make_stream,
    read_stream,
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


def reference_read_csv(path):
    """Row-by-row reader with the csv module: the reference for the grammar's valid part."""
    t, x, y, p = [], [], [], []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and row[0].strip() == "t_us"):
                continue
            assert len(row) == 4
            t.append(int(row[0]))
            x.append(int(row[1]))
            y.append(int(row[2]))
            pol = int(row[3])
            assert pol in (0, 1)
            p.append(bool(pol))
    return (
        np.array(t, dtype=np.int64),
        np.array(x, dtype=np.int64),
        np.array(y, dtype=np.int64),
        np.array(p, dtype=bool),
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
        if fmt == "csv":  # rows cross the reader's block boundaries
            assert path.stat().st_size > 2 * events._CSV_BLOCK_BYTES
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

    def test_pixel_beyond_int32_is_bounds_error(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("0,4294967301,0,1\n")  # 2**32 + 5, which int32 wraps to 5
        with pytest.raises(BoundsError, match="does not fit int32"):
            read_stream(path, "csv", sensor=(2**40, 2**40))

    def test_binary_timestamp_beyond_int64(self, tmp_path):
        path = tmp_path / "s.bin"
        write_stream(random_stream(3, seed=1), path, "binary")
        raw = bytearray(path.read_bytes())
        record = events._RECORD_DTYPE.itemsize
        raw[16 + 2 * record:16 + 2 * record + 8] = (2**63).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=r"s\.bin: record 2: timestamp 9223372036854775808"):
            read_stream(path, "binary")

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


BIG = 10**18 - 1


class TestCsvGrammar:
    @pytest.mark.parametrize(
        "text, rows",
        [
            ("t_us,x,y,polarity\r\n5,1,2,1\r\n6,3,4,0\r\n", 2),
            ("t_us,x,y,polarity\n\n5,1,2,1\n\r\n\n6,3,4,0\n\n", 2),
            ("t_us,x,y,polarity\n5,1,2,1\n6,3,4,0", 2),
            ("t_us,x,y,polarity\r\n5,1,2,1\r\n6,3,4,0", 2),
            ("5,1,2,1\n6,3,4,0\n", 2),
            ("t_us,x,y,polarity\n", 0),
            ("t_us,x,y,polarity", 0),
            ("", 0),
            ("\n\n", 0),
            (f"0,0,0,0\n{BIG},{BIG},{BIG},1\n", 2),
            ("t_us\n007,0010,1,1\n", 1),
        ],
        ids=["crlf", "blank-lines", "no-final-newline", "crlf-no-final-newline",
             "no-header", "header-only", "header-only-no-newline", "zero-byte",
             "blank-only", "extremes", "leading-zeros"],
    )
    def test_matches_reference_reader(self, tmp_path, text, rows):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        got = events._read_csv(path)
        want = reference_read_csv(path)
        assert len(got[0]) == rows
        for a, b in zip(got, want):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "text, line, reason",
        [
            ("t_us,x,y,polarity\n5,1,2\n", 2, "expected 4 fields, got 3"),
            ("5,1,2,1\n6,1,2,1,0\n", 2, "expected 4 fields, got 5"),
            ("t_us,x,y,polarity\n5,1,2,1\n5,a,2,1\n", 3, "x 'a' is not a decimal integer"),
            ("t_us,x,y,polarity\n-5,1,2,1\n", 2, "t_us '-5' is not a decimal integer"),
            ("t_us,x,y,polarity\n+5,1,2,1\n", 2, "t_us '+5' is not"),
            ("t_us,x,y,polarity\n5, 1,2,1\n", 2, "x ' 1' is not"),
            ("t_us,x,y,polarity\n1_000,1,2,1\n", 2, "t_us '1_000' is not"),
            ("t_us,x,y,polarity\n5,1,,1\n", 2, "y '' is not"),
            ("t_us,x,y,polarity\n5,1\r,2,1\n", 2, "x '1\\r' is not"),
            ("t_us,x,y,polarity\r\n5,1,2,1\r\r\n", 2, "polarity '1\\r' is not"),
            ("t_us,x,y,polarity\n5,1,2,1\r", 2, "polarity '1\\r' is not"),
            ("t_us,x,y,polarity\n5,1,2,2\n", 2, "polarity must be 0 or 1, got '2'"),
            ("t_us,x,y,polarity\n5,1,2,01\n", 2, "polarity must be 0 or 1, got '01'"),
            (f"t_us,x,y,polarity\n{10**18},1,2,1\n", 2, "t_us has 19 digits"),
            (f"t_us,x,y,polarity\n{10**22},1,2,1\n", 2, "t_us has 23 digits"),
            ("t_us,x,y,polarity\n \n", 2, "expected 4 fields, got 1"),
            ("x_us,x,y,polarity\n5,1,2,1\n", 1, "t_us 'x_us' is not"),
            ("5,1,2,1\n" + "1" * events._CSV_BLOCK_BYTES, 2, "line longer than"),
        ],
        ids=["too-few-fields", "too-many-fields", "non-digit", "minus-sign", "plus-sign",
             "space", "underscore", "empty-field", "stray-cr", "double-cr", "cr-at-eof",
             "polarity-2", "polarity-01", "19-digits", "23-digits", "whitespace-line",
             "other-header", "line-longer-than-a-block"],
    )
    def test_bad_row_names_path_and_line(self, tmp_path, text, line, reason):
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        with pytest.raises(ParseError, match=rf"bad\.csv:{line}: " + re.escape(reason)):
            read_stream(path, "csv", sensor=(1280, 720))

    def test_first_bad_row_is_reported(self, tmp_path):
        # in the second block, a bad byte precedes a wrong field count
        rows = ["5,1,2,1"] * 700_000
        rows[600_000] = "5,1,2,x"
        rows[650_000] = "5,1,2"
        path = tmp_path / "bad.csv"
        path.write_text("t_us,x,y,polarity\n" + "\n".join(rows) + "\n")
        assert len("t_us,x,y,polarity\n") + 8 * 600_000 > events._CSV_BLOCK_BYTES
        with pytest.raises(ParseError, match=r"bad\.csv:600002: polarity 'x'"):
            read_stream(path, "csv", sensor=(1280, 720))

    def test_writer_refuses_values_the_reader_rejects(self, tmp_path):
        stream = EventStream(0, 10, 10, [10**18], [1], [1], [True])
        with pytest.raises(ValueError, match="18 digits"):
            write_stream(stream, tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()


class TestStreamModel:
    def test_non_decreasing_timestamps_enforced(self):
        with pytest.raises(ValueError):
            EventStream(0, 10, 10, [5, 3], [0, 0], [0, 0], [True, True])

    def test_pixel_bounds_enforced(self):
        with pytest.raises(BoundsError):
            EventStream(0, 10, 10, [1, 2], [0, 10], [0, 0], [True, True])

    def test_values_beyond_int32_rejected_before_the_cast(self):
        wide = np.array([2**32 + 5], dtype=np.int64)
        with pytest.raises(BoundsError, match="outside sensor"):
            EventStream(0, 10, 10, [1], wide, [0], [True])
        with pytest.raises(BoundsError, match="does not fit int32"):
            EventStream(0, 2**31, 10, [1], wide, [0], [True])
        edge = EventStream(0, 2**31 - 1, 10, [1], [2**31 - 2], [9], [True])
        assert edge.x.dtype == np.int32 and edge.x[0] == 2**31 - 2

    def test_make_stream_sorts_stably(self):
        stream, warnings = make_stream(
            0, 10, 10, [5, 5, 3], [2, 1, 0], [0, 0, 0], [True, False, True]
        )
        assert warnings >= 1
        np.testing.assert_array_equal(stream.t, [3, 5, 5])
        np.testing.assert_array_equal(stream.x, [0, 1, 2])
