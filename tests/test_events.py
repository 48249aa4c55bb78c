"""Event stream model and bit-exact file round trips."""
import csv
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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


# the columns of every stream: t, x, y and polarity
STREAM_DTYPES = [np.dtype(np.int64), np.dtype(np.uint16), np.dtype(np.uint16), np.dtype(bool)]
SIDE = 65535  # the widest and tallest sensor
WIDEST = (SIDE, SIDE)


def reference_read_csv(path):
    """Row-by-row reader with the csv module: the reference for the grammar's
    valid part. Its columns are int64, with each row's line number last."""
    t, x, y, p, lines = [], [], [], [], []
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
            lines.append(lineno)
    return (
        np.array(t, dtype=np.int64),
        np.array(x, dtype=np.int64),
        np.array(y, dtype=np.int64),
        np.array(p, dtype=bool),
        np.array(lines, dtype=np.int64),
    )


def assert_reads_as(got, want, sensor=WIDEST):
    """got is what _read_csv returned or raised on s.csv of the sensor, want
    a reference's columns and line numbers. A pixel outside the sensor must
    be the BoundsError of the first row that has one; otherwise got holds
    want's values in the stream's dtypes."""
    *columns, lines = want
    width, height = sensor
    beyond = np.flatnonzero((columns[1] >= width) | (columns[2] >= height))
    if len(beyond):
        i = beyond[0]
        assert isinstance(got, BoundsError)
        assert str(got).endswith(f"s.csv:{lines[i]}: pixel ({columns[1][i]}, {columns[2][i]}) "
                                 f"outside sensor {width}x{height}")
        return
    assert isinstance(got, tuple)
    assert [a.dtype for a in got] == STREAM_DTYPES
    for a, b in zip(got, columns):
        np.testing.assert_array_equal(a, b)


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
        tracemalloc.start()
        try:
            loaded, warnings = read_stream(path, fmt, sensor=(1280, 720))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the reader holds the stream's columns, 13 bytes a row, and a few blocks
        assert peak <= 13 * len(stream) + 16 * events._CSV_BLOCK_BYTES
        assert [c.dtype for c in (loaded.t, loaded.x, loaded.y, loaded.polarity)] == STREAM_DTYPES
        assert warnings == 0
        np.testing.assert_array_equal(loaded.t, stream.t)
        np.testing.assert_array_equal(loaded.x, stream.x)
        np.testing.assert_array_equal(loaded.y, stream.y)
        np.testing.assert_array_equal(loaded.polarity, stream.polarity)
        if fmt == "csv":  # a bad last line is named within the same bound
            with open(path, "a") as fh:
                fh.write("5,1,2\n")
            tracemalloc.start()
            try:
                with pytest.raises(ParseError, match=r"big\.csv:1000002: expected 4 fields"):
                    read_stream(path, fmt, sensor=(1280, 720))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 13 * len(stream) + 16 * events._CSV_BLOCK_BYTES

    @pytest.mark.parametrize("fmt", ["csv", "binary"])
    def test_columns_hold_13_bytes_an_event(self, tmp_path, fmt):
        """t int64, x and y uint16 and polarity bool: 13 bytes an event, as
        many as a binary record."""
        stream = random_stream(1000, seed=4)
        path = tmp_path / f"s.{fmt}"
        write_stream(stream, path, fmt)
        loaded, _ = read_stream(path, fmt, sensor=(1280, 720))
        columns = (loaded.t, loaded.x, loaded.y, loaded.polarity)
        assert [c.dtype for c in columns] == STREAM_DTYPES
        assert sum(c.nbytes for c in columns) == 13 * len(loaded) == 13_000
        assert events._RECORD_DTYPE.itemsize == 13

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
        path.write_text("t_us,x,y,polarity\n5,1279,719,1\n5,1280,1,1\n6,1,720,1\n")
        with pytest.raises(BoundsError, match=r"oob\.csv:3: pixel \(1280, 1\) outside sensor "
                                              "1280x720$"):
            read_stream(path, "csv", sensor=(1280, 720))
        with pytest.raises(BoundsError, match=r"oob\.csv:4: pixel \(1, 720\) outside sensor "
                                              "1281x720$"):
            read_stream(path, "csv", sensor=(1281, 720))
        assert len(read_stream(path, "csv", sensor=(1281, 721))[0]) == 3

    def test_pixel_beyond_int32_is_bounds_error(self, tmp_path):
        """Pixels of 2**32 + 5 and 2**16 + 5, which uint16 wraps to 5, name
        their line; a sensor wider than uint16 is refused before any row is
        read, so before a bad row is found."""
        path = tmp_path / "wide.csv"
        for line, pixel in enumerate((2**32 + 5, 2**16 + 5, SIDE), start=1):
            path.write_text("0,5,0,1\n" * (line - 1) + f"0,{pixel},0,1\n")
            with pytest.raises(BoundsError, match=rf"wide\.csv:{line}: pixel \({pixel}, 0\) "
                                                  "outside sensor 65535x65535"):
                read_stream(path, "csv", sensor=WIDEST)
        path.write_text("0,5,0\n")
        for sensor in ((2**40, 2**40), (2**16, 1), (1, 2**16), (0, 720)):
            with pytest.raises(BoundsError, match=rf"sensor {sensor[0]}x{sensor[1]} out of range"):
                read_stream(path, "csv", sensor=sensor)

    def test_binary_timestamp_beyond_int64(self, tmp_path):
        path = tmp_path / "s.bin"
        write_stream(random_stream(3, seed=1), path, "binary")
        raw = bytearray(path.read_bytes())
        record = events._RECORD_DTYPE.itemsize
        raw[16 + 2 * record:16 + 2 * record + 8] = (2**63).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=r"s\.bin: record 2: timestamp 9223372036854775808"):
            read_stream(path, "binary")

    @pytest.mark.parametrize("offset", [-1, 0, 1, 5])
    def test_binary_timestamp_beyond_int64_in_a_later_block(self, tmp_path, offset):
        """The record index counts from the file's first record, not the block's."""
        block = events._BINARY_BLOCK_RECORDS
        path = tmp_path / "s.bin"
        write_stream(random_stream(block + 10, seed=1), path, "binary")
        raw = bytearray(path.read_bytes())
        at = 16 + (block + offset) * events._RECORD_DTYPE.itemsize
        raw[at:at + 8] = (2**64 - 1).to_bytes(8, "little")
        path.write_bytes(bytes(raw))
        with pytest.raises(ParseError, match=rf"record {block + offset}: timestamp {2**64 - 1} "):
            read_stream(path, "binary")

    @pytest.mark.parametrize("extra", [None, -1, 0, 1])
    def test_binary_round_trip_at_block_edges(self, tmp_path, extra):
        """0 and 1 records, and one block, one short of it, one past it and
        two blocks and one record: every column read back exactly."""
        block = events._BINARY_BLOCK_RECORDS
        for n in ([0, 1, 2 * block + 1] if extra is None else [block + extra]):
            stream = random_stream(n, seed=n, width=65535, height=65535)
            path = tmp_path / f"s{n}.bin"
            write_stream(stream, path, "binary")
            loaded, warnings = read_stream(path, "binary")
            assert warnings == 0
            for name in ("t", "x", "y", "polarity"):
                got, want = getattr(loaded, name), getattr(stream, name)
                assert got.dtype == want.dtype
                np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "raw, message",
        [
            (b"EVDSTRM\x00\x01", r"truncated header \(9 bytes\)"),
            (b"EVDSTRM\x00\x02\x00" + bytes(6), "unsupported version 2"),
            (b"EVDSTRM\x00\x01\x00" + bytes(6) + bytes(14), "body size 14 not a multiple of record size 13"),
        ],
    )
    def test_binary_malformed(self, tmp_path, raw, message):
        path = tmp_path / "s.bin"
        path.write_bytes(raw)
        with pytest.raises(ParseError, match=message):
            read_stream(path, "binary")

    def test_binary_header_carries_sensor(self, tmp_path):
        stream = random_stream(100, seed=1, width=640, height=480)
        path = tmp_path / "s.bin"
        write_stream(stream, path, "binary")
        loaded, _ = read_stream(path, "binary")
        assert loaded.sensor == (640, 480)

    def test_binary_sensor_beyond_16_bits(self, tmp_path):
        """The header holds width and height in 16 bits each, as the pixel
        columns do: 65535 round trips, and no stream, so no file, has a
        wider sensor."""
        path = tmp_path / "s.bin"
        write_stream(random_stream(10, seed=1, width=65535, height=65535), path, "binary")
        assert read_stream(path, "binary")[0].sensor == (65535, 65535)
        path.unlink()
        for width, height in ((70000, 480), (640, 65536)):
            with pytest.raises(BoundsError, match=f"sensor {width}x{height} .* at most 65535"):
                write_stream(random_stream(10, seed=1, width=width, height=height), path, "binary")
            assert not path.exists()

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
            (f"{BIG},{SIDE - 1:018d},{7:010d},1\r\n{1:018d},{0:012d},{SIDE - 1},0\r\n", 2),
            ("0,2147483648,0,1\n", 1),
            ("t_us,x,y,polarity\r\n\r\n5,1,2,1\r\n6,0,99999999999,0\r\n7,4294967301,1,1\r\n", 3),
            (f"0,0,0,0\n{BIG},{SIDE - 1},{SIDE - 1},1\n", 2),
            (f"5,1,2,1\r\n6,{SIDE:018d},0,1\r\n7,{SIDE},{SIDE},0\r\n", 3),
            (f"5,{SIDE - 1},{SIDE},1\n", 1),
        ],
        ids=["crlf", "blank-lines", "no-final-newline", "crlf-no-final-newline",
             "no-header", "header-only", "header-only-no-newline", "zero-byte",
             "blank-only", "extremes", "leading-zeros", "zero-padded-wide-pixels",
             "pixel-beyond-int32", "first-pixel-beyond-int32", "sensor-edge",
             "zero-padded-pixel-beyond-sensor", "y-beyond-sensor"],
    )
    def test_matches_reference_reader(self, tmp_path, text, rows):
        path = tmp_path / "s.csv"
        path.write_bytes(text.encode())
        try:
            got = events._read_csv(path, WIDEST)
        except BoundsError as exc:
            got = exc
        assert_reads_as(got, reference_read_csv(path))
        if not isinstance(got, BoundsError):
            assert len(got[0]) == rows

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
            ("0,2147483648,0,1\n5,1,2\n", 2, "expected 4 fields, got 3"),
            (f"0,{SIDE:018d},0,1\n0,1280,0,1\n5,1,2,1,\n", 3, "expected 4 fields, got 5"),
            ("t_us,x,y,polarity\r\n5,1,2,1\r7\n", 2, "polarity '1\\r7' is not"),
        ],
        ids=["too-few-fields", "too-many-fields", "non-digit", "minus-sign", "plus-sign",
             "space", "underscore", "empty-field", "stray-cr", "double-cr", "cr-at-eof",
             "polarity-2", "polarity-01", "19-digits", "23-digits", "whitespace-line",
             "other-header", "line-longer-than-a-block", "bad-line-after-wide-pixel",
             "digit-between-cr-and-lf", "bad-line-after-zero-padded-pixels-beyond-sensor"],
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

    def test_rows_beyond_the_line_count_are_a_parse_error(self, tmp_path, monkeypatch):
        """A file that grows between the count of its line ends and the parse."""
        path = tmp_path / "s.csv"
        path.write_text("5,1,2,1\n" * 20)
        parse = events._parse_csv_block

        def grow_once_then_parse(*args):
            if path.stat().st_size == 160:
                with open(path, "a") as fh:
                    fh.write("5,1,2,1\n" * 10)
            return parse(*args)

        monkeypatch.setattr(events, "_CSV_BLOCK_BYTES", 64)
        monkeypatch.setattr(events, "_parse_csv_block", grow_once_then_parse)
        with pytest.raises(ParseError, match=r"s\.csv: more rows than line ends"):
            events._read_csv(path, (1280, 720))

    def test_writer_refuses_values_the_reader_rejects(self, tmp_path):
        stream = EventStream(0, 10, 10, [10**18], [1], [1], [True])
        with pytest.raises(ValueError, match="18 digits"):
            write_stream(stream, tmp_path / "s.csv")
        assert not (tmp_path / "s.csv").exists()


def csv_lines():
    """(line, ending) pairs of a valid event CSV: an optional header, then
    rows of 1-18 digit fields with leading zeros and blank lines, each
    ending LF or CRLF."""
    field = st.text("0123456789", min_size=1, max_size=18)
    row = st.tuples(field, field, field, st.sampled_from("01")).map(",".join)
    ending = st.sampled_from(["\n", "\r\n"])
    header = st.lists(st.tuples(st.sampled_from(["t_us,x,y,polarity", "t_us"]), ending), max_size=1)
    body = st.lists(st.tuples(st.one_of(row, row, row, st.just("")), ending), max_size=40)
    return st.builds(lambda h, b: h + b, header, body)


def csv_text(lines, final_newline: bool) -> str:
    text = "".join(line + end for line, end in lines)
    if lines and not final_newline:
        text = text[:-len(lines[-1][1])]
    return text


def pixels_within_sensor(lines):
    """The lines with each row's x and y taken modulo 65535 and zero-padded
    back to their width, so they lie on the widest sensor in every field
    width."""
    def fit(field):
        return f"{int(field) % SIDE:0{len(field)}d}"

    def row(line):
        fields = line.split(",")
        if len(fields) != 4 or not fields[0].isdigit():  # a header or blank line
            return line
        return ",".join((fields[0], fit(fields[1]), fit(fields[2]), fields[3]))

    return [(row(line), end) for line, end in lines]


def grammar_read(text: str):
    """Line by line, as the grammar reads: the rows' columns and line
    numbers, and the number and content of the first rejected line (None
    when every line is valid)."""
    rows = []
    lines = text.split("\n")
    for number, line in enumerate(lines, start=1):
        if line.endswith("\r") and number < len(lines):
            line = line[:-1]
        if not line or number == 1 and line.startswith("t_us") and line[4:5] in ("", ",", "\r"):
            continue
        fields = line.split(",")
        if not (len(fields) == 4 and all(f.isascii() and f.isdigit() and len(f) <= 18 for f in fields)
                and fields[3] in ("0", "1")):
            return None, (number, line)
        rows.append([int(f) for f in fields] + [number])
    columns = np.array(rows, dtype=np.int64).reshape(-1, 5).T
    return (*columns[:3], columns[3] == 1, columns[4]), None


def read_with_blocks(text: str, block: int, reference=reference_read_csv):
    """_read_csv on text of the widest sensor, with blocks of the given size,
    or the ParseError or BoundsError it raises; and the reference's columns."""
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(events, "_CSV_BLOCK_BYTES", block):
        path = Path(tmp) / "s.csv"
        path.write_bytes(text.encode())
        try:
            got = events._read_csv(path, WIDEST)
        except (ParseError, BoundsError) as exc:
            got = exc
        return got, reference(path)


class TestCsvBlockEdges:
    """The reader with blocks of a few dozen bytes, so that block edges fall
    on every byte of a row, a CRLF and a blank line. The longest line is 60
    bytes with its CRLF, so each block still holds a whole line.

    Most texts hold a pixel outside the widest sensor, which is a
    BoundsError, so each is read again with its pixels cut to fit and
    compared value by value."""

    @settings(max_examples=300, deadline=None)
    @given(lines=csv_lines(), final_newline=st.booleans(), block=st.integers(61, 160))
    def test_valid_text_matches_reference_reader(self, lines, final_newline, block):
        for text_lines in (lines, pixels_within_sensor(lines)):
            assert_reads_as(*read_with_blocks(csv_text(text_lines, final_newline), block))

    @settings(max_examples=300, deadline=None)
    @given(lines=csv_lines(), final_newline=st.booleans(), block=st.integers(61, 160),
           at=st.floats(0, 1, exclude_max=True), byte=st.sampled_from("7,\r x-"))
    def test_one_changed_byte_names_the_first_bad_line(self, lines, final_newline, block, at, byte):
        """Any byte but a newline replaced: the reader returns the rows the
        grammar reads, or names the first line it rejects, even after a
        pixel outside the sensor."""
        for text_lines in (lines, pixels_within_sensor(lines)):
            text = csv_text(text_lines, final_newline)
            places = [i for i, c in enumerate(text) if c != "\n"]
            if places:
                i = places[int(at * len(places))]
                text = text[:i] + byte + text[i + 1:]
            got, (want, bad) = read_with_blocks(text, block, lambda path: grammar_read(text))
            if bad is None:
                assert_reads_as(got, want)
            else:
                line, content = bad
                assert isinstance(got, ParseError)
                assert str(got).endswith(f"s.csv:{line}: {events._row_error(content.encode())}")

    @pytest.mark.parametrize("final_newline", [True, False])
    def test_crlf_rows_read_as_their_lf_twin(self, final_newline):
        """Rows that all end in CRLF, as a file converted to CRLF has: the
        columns are bitwise those of the same rows ending in LF, wherever a
        block edge falls."""
        stream = random_stream(40, seed=5)
        text = "t_us,x,y,polarity\n" + "".join(
            f"{t},{x},{y},{int(p)}\n" for t, x, y, p in zip(stream.t, stream.x, stream.y, stream.polarity))
        if not final_newline:
            text = text[:-1]
        for block in range(61, 90):
            lf, _ = read_with_blocks(text, block)
            crlf, _ = read_with_blocks(text.replace("\n", "\r\n"), block)
            for a, b in zip(crlf, lf):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("block", range(61, 90))
    def test_bad_line_after_blank_and_crlf_lines_in_a_later_block(self, tmp_path, monkeypatch, block):
        monkeypatch.setattr(events, "_CSV_BLOCK_BYTES", block)
        text = ("t_us,x,y,polarity\n" + "1000,12,34,1\n" * 20 + "\n" + "1001,5,6,0\r\n"
                + "\r\n" + "1002,7,8,1\n" + "1003,7,x,1\r\n" + "1004,1,2\n")
        path = tmp_path / "bad.csv"
        path.write_bytes(text.encode())
        assert text.index("1003") > 3 * block
        with pytest.raises(ParseError, match=r"bad\.csv:26: y 'x' is not a decimal integer"):
            events._read_csv(path, (1280, 720))


B = events.CSV_BLOCK_ROWS
# every digit count 1-18 at both ends, and the edges of the four-digit groups
EDGE_VALUES = np.array(sorted(
    {0, 9999, 10**4, 10**8 - 1, 10**8, 10**17, 10**18 - 1}
    | {10**k for k in range(18)} | {10**k - 1 for k in range(1, 19)}
), dtype=np.int64)


def reference_csv(stream):
    """Row by row with f-strings: the reference for the CSV writer."""
    rows = zip(stream.t.tolist(), stream.x.tolist(), stream.y.tolist(), stream.polarity.tolist())
    return ("t_us,x,y,polarity\n" + "".join(f"{t},{x},{y},{int(p)}\n" for t, x, y, p in rows)).encode()


def edge_column(n, rng, high):
    """n values below high: the edge values first, then values of 1-18
    random digits, in random order."""
    values = rng.integers(0, 10 ** rng.integers(1, 19, n))
    edges = EDGE_VALUES[EDGE_VALUES < high][:n]
    values[:len(edges)] = edges
    return rng.permutation(np.minimum(values, high - 1))


class TestCsvWriter:
    @pytest.mark.parametrize("n", [0, 1, B - 1, B, B + 1, 2 * B + 1])
    def test_equals_reference(self, tmp_path, n):
        """Every digit count and group edge, in each column, at row counts
        around the writer's block edges."""
        rng = np.random.default_rng(n)
        stream = EventStream(
            0, SIDE, SIDE,
            np.sort(edge_column(n, rng, 10**18)),
            edge_column(n, rng, SIDE),
            edge_column(n, rng, SIDE),
            rng.random(n) < 0.5,
        )
        write_stream(stream, tmp_path / "s.csv")
        assert (tmp_path / "s.csv").read_bytes() == reference_csv(stream)

    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint16])
    def test_digit_counts_equal_binary_search(self, dtype):
        """One plus the powers of ten reached, at 0 and on both sides of every
        power up to 10**18 - 1, for a whole column, one value at a time
        (each column compares only up to its largest value) and an empty
        column."""
        values = [0] + [v for k in range(1, 19) for v in (10**k - 1, 10**k)][:-1]
        values = np.array([v for v in values if v <= np.iinfo(dtype).max], dtype=dtype)
        powers = events._POWERS_OF_TEN
        for column in (values, *values[:, None], values[:0]):
            expected = np.searchsorted(powers, column, side="right") + 1
            got = events.digit_counts(column)
            assert got.dtype == expected.dtype
            np.testing.assert_array_equal(got, expected)

    def test_scatter_digits_spills_at_most_three_zeros(self):
        """A value's leading group writes '0's into at most the three bytes
        left of its first digit, and no byte to the right of its last."""
        values = np.array([0, 7, 12345, 10**8, 10**18 - 1])
        text = [str(v) for v in values]
        last = np.cumsum([len(t) + 4 for t in text]) - 1  # 3 spare bytes and a gap before each
        out = np.full(last[-1] + 2, ord("#"), dtype=np.uint8)
        events.scatter_digits(out, last, values)
        expected = "".join("#" * (4 - -len(t) % 4) + "0" * (-len(t) % 4) + t for t in text) + "#"
        assert out.tobytes().decode() == expected


class TestStreamModel:
    def test_non_decreasing_timestamps_enforced(self):
        with pytest.raises(ValueError):
            EventStream(0, 10, 10, [5, 3], [0, 0], [0, 0], [True, True])

    def test_pixel_bounds_enforced(self):
        with pytest.raises(BoundsError):
            EventStream(0, 10, 10, [1, 2], [0, 10], [0, 0], [True, True])

    def test_values_beyond_int32_rejected_before_the_cast(self):
        """Pixels are checked against the sensor before the uint16 cast,
        which wraps -1 to 65535 and 2**32 + 5 and 2**16 + 5 to 5. The sensor
        is 1 to 65535 pixels a side."""
        for value in (-1, 2**16 + 5, 2**32 + 5):
            for x, y in ((value, 0), (0, value)):
                with pytest.raises(BoundsError, match="outside sensor 65535x65535"):
                    EventStream(0, SIDE, SIDE, [1], np.array([x]), np.array([y]), [True])
        for width, height in ((SIDE + 1, 10), (10, SIDE + 1), (2**31, 10), (0, 10), (10, 0)):
            with pytest.raises(BoundsError, match=f"sensor {width}x{height} out of range: .* "
                                                  "1 to at most 65535"):
                EventStream(0, width, height, [1], [0], [0], [True])
        edge = EventStream(0, SIDE, SIDE, [1], [SIDE - 1], [SIDE - 1], [True])
        assert edge.x.dtype == edge.y.dtype == np.uint16
        assert edge.x[0] == edge.y[0] == SIDE - 1
        with pytest.raises(BoundsError, match="outside sensor 65535x65535"):
            EventStream(0, SIDE, SIDE, [1], [SIDE], [0], [True])

    def test_make_stream_sorts_stably(self):
        stream, warnings = make_stream(
            0, 10, 10, [5, 5, 3], [2, 1, 0], [0, 0, 0], [True, False, True]
        )
        assert warnings >= 1
        np.testing.assert_array_equal(stream.t, [3, 5, 5])
        np.testing.assert_array_equal(stream.x, [0, 1, 2])
