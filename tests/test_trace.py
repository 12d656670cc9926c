"""Tracer parsing, the repairs of ingestion, and the canonical round trip."""

from __future__ import annotations

import io

import pytest
from hypothesis import given, strategies as st

from iostack import (
    AccessMode,
    BadTime,
    CanonicalFormatError,
    CanonicalRequest,
    GeneratorSpec,
    MalformedLine,
    Op,
    Origin,
    UnknownOp,
    generate,
    ingest_text,
    parse_trace_line,
    read_canonical,
    write_canonical,
)
from iostack.workload import DistSpec


class TestParseLine:
    def test_read_line_fields(self):
        line = "88  17:3:26.407  csrss.exe:712  READ  C:\\1\\testwrite.exe  LCN: 403019 Offset: 0 Length: 12"
        raw = parse_trace_line(line)
        assert raw.seq == 88
        # 17h 3m 26.407s after midnight
        assert raw.wallclock_us == 61_406_407_000
        assert raw.process_name == "csrss.exe"
        assert raw.pid == 712
        assert raw.op is Op.READ
        assert raw.path == "C:\\1\\testwrite.exe"
        assert (raw.lcn, raw.offset_bytes, raw.length_bytes) == (403019, 0, 12)

    def test_open_line_flags(self):
        line = "159  17:03:26.437  testwrite.exe:928  OPEN  C:\\1\\testwrite0  SUCCESS Options: Open NoBuffer Access: All"
        raw = parse_trace_line(line)
        assert raw.op is Op.OPEN
        assert raw.mode is AccessMode.NO_BUFFER

    def test_write_line(self):
        line = "190  17:3:26.437  testwrite.exe:928  WRITE  C:\\1\\testwrite0  LCN: 2000668 Offset: 0 Length: 196608"
        raw = parse_trace_line(line)
        assert raw.op is Op.WRITE
        assert raw.lcn == 2000668
        assert raw.length_bytes == 196608

    def test_two_digit_and_one_digit_hours_agree(self):
        a = parse_trace_line("1  17:03:26.407  p.exe:1  OPEN  C:\\f  SUCCESS")
        b = parse_trace_line("2  17:3:26.407  p.exe:1  OPEN  C:\\f  SUCCESS")
        assert a.wallclock_us == b.wallclock_us

    def test_missing_seq_is_malformed(self):
        with pytest.raises(MalformedLine, match="seq"):
            parse_trace_line("x  17:03:26.407  p.exe:1  OPEN  C:\\f  SUCCESS")

    def test_unknown_op_named_by_seq(self):
        with pytest.raises(UnknownOp, match="seq 7"):
            parse_trace_line("7  17:03:26.407  p.exe:1  DELETE  C:\\f  SUCCESS")

    def test_bad_time(self):
        with pytest.raises(BadTime, match="seq 7"):
            parse_trace_line("7  25:99:99.000  p.exe:1  OPEN  C:\\f  SUCCESS")

    def test_io_line_without_extent_is_malformed(self):
        with pytest.raises(MalformedLine, match="LCN"):
            parse_trace_line("7  17:03:26.407  p.exe:1  READ  C:\\f  SUCCESS")

    def test_error_carries_the_seq_it_read(self):
        with pytest.raises(MalformedLine) as no_seq:
            parse_trace_line("garbage")
        assert no_seq.value.seq is None
        assert str(no_seq.value) == "expected seq/time/process/op/path, got 1 fields"
        with pytest.raises(UnknownOp) as with_seq:
            parse_trace_line("7  17:03:26.407  p.exe:1  DELETE  C:\\f  SUCCESS")
        assert with_seq.value.seq == 7


class TestNormalize:
    def test_address_reconstruction(self):
        requests, report = ingest_text(
            "1  17:00:00.000  p.exe:1  OPEN  C:\\f  SUCCESS Options: Open\n"
            "2  17:00:00.010  p.exe:1  READ  C:\\f  LCN: 403019 Offset: 0 Length: 12\n",
            cluster_size_bytes=4096,
        )
        read = requests[1]
        assert read.disk_byte_addr == 403019 * 4096 == 1_650_765_824
        assert report.seqs == [1, 2]

    def test_sample_origin_split(self, sample_trace_text):
        requests, report = ingest_text(sample_trace_text, system_processes=("csrss.exe", "explorer.exe"))
        assert len(requests) == 11
        assert not report.dropped_lines
        app = [r for r in requests if r.origin is Origin.APP]
        system = [r for r in requests if r.origin is Origin.SYSTEM]
        assert (len(app), len(system)) == (7, 4)
        assert report.seqs == [80, 85, 88, 91, 95, 98, 104, 132, 159, 190, 191]

    def test_sample_mode_stickiness(self, sample_trace_text):
        requests, _ = ingest_text(sample_trace_text)
        writes = [r for r in requests if r.op is Op.WRITE]
        assert len(writes) == 2
        # The no-buffer flag set at open time rides on every write.
        assert all(w.mode is AccessMode.NO_BUFFER for w in writes)
        assert writes[0].length_bytes == 196_608
        assert writes[1].length_bytes == 131_072

    def test_orphan_io_dropped_and_reported(self):
        requests, report = ingest_text(
            "5  17:00:00.000  p.exe:1  READ  C:\\f  LCN: 10 Offset: 0 Length: 512\n"
        )
        assert requests == []
        assert report.dropped_lines == [(5, "OrphanIO")]

    def test_drops_reported_in_line_order(self):
        # An orphan READ, then a line that does not parse, then two with no
        # readable seq: each is named where it stands, the last two by their
        # 1-based line number.  A superscript two passes ``str.isdigit`` but
        # not ``int``; it used to raise ValueError.
        text = (
            "1  17:00:00.000  p.exe:1  OPEN  C:\\f  SUCCESS\n"
            "2  17:00:00.010  p.exe:2  READ  C:\\f  LCN: 10 Offset: 0 Length: 512\n"
            "3  17:00:00.020  p.exe:1  DELETE  C:\\f  SUCCESS\n"
            "x  17:00:00.030  p.exe:1  CLOSE  C:\\f  SUCCESS\n"
            "\u00b2  17:00:00.040  p.exe:1  CLOSE  C:\\f  SUCCESS\n"
        )
        requests, report = ingest_text(text)
        assert [r.op for r in requests] == [Op.OPEN]
        assert report.seqs == [1]
        assert report.dropped_lines == [
            (2, "OrphanIO"),
            (3, "UnknownOp: seq 3: unknown operation 'DELETE'"),
            (4, "MalformedLine: missing or non-numeric seq 'x'"),
            (5, "MalformedLine: missing or non-numeric seq '\u00b2'"),
        ]

    def test_line_with_no_readable_seq_is_named_by_its_line_number(self):
        # A CRLF capture with a non-ASCII path: a line number cannot drift
        # with line terminators or multi-byte characters the way an offset
        # can.  The single-space-separated record on line 4 is one field to
        # the parser, so no seq was read from it, and it is not named 7.
        text = (
            "1\t17:00:00.000\tapp.exe:1\tOPEN\tC:\\donn\u00e9es\\f\tSUCCESS Options: Open\r\n"
            "2\t17:00:00.010\tapp.exe:1\tREAD\tC:\\donn\u00e9es\\f\tLCN: 10 Offset: 0 Length: 4096\r\n"
            "garbage\r\n"
            "7 17:00:00.020 app.exe:1 READ C:\\donn\u00e9es\\f LCN: 10 Offset: 0 Length: 4096\r\n"
        )
        requests, report = ingest_text(text)
        assert [r.op for r in requests] == [Op.OPEN, Op.READ]
        assert report.seqs == [1, 2]
        assert report.dropped_lines == [
            (3, "MalformedLine: expected seq/time/process/op/path, got 1 fields"),
            (4, "MalformedLine: expected seq/time/process/op/path, got 1 fields"),
        ]

    def test_totality(self, sample_trace_text):
        extra = "500  17:03:27.000  p.exe:9  WRITE  C:\\nofile  LCN: 1 Offset: 0 Length: 512\n"
        text = sample_trace_text + "# a comment\n\n" + extra
        requests, report = ingest_text(text)
        records = [line for line in text.splitlines() if line.strip() and not line.startswith("#")]
        assert len(records) == len(requests) + len(report.dropped_lines)
        assert report.dropped_lines == [(500, "OrphanIO")]
        assert len(report.seqs) == len(requests)

    def test_issue_times_non_decreasing(self, sample_trace_text):
        requests, _ = ingest_text(sample_trace_text)
        times = [r.issue_time_us for r in requests]
        assert times == sorted(times)

    def test_midnight_rollover_rejected(self):
        with pytest.raises(BadTime, match="seq 2: wallclock went backwards .midnight rollover"):
            ingest_text(
                "1  23:59:59.900  p.exe:1  OPEN  C:\\f  SUCCESS\n"
                "2  0:00:00.100  p.exe:1  CLOSE  C:\\f  SUCCESS\n"
            )

    def test_bad_cluster_size_rejected(self):
        with pytest.raises(ValueError, match="power of two"):
            ingest_text("", cluster_size_bytes=1000)

    def test_sessions_tracked_per_process(self):
        # Two processes hold different modes on the same path concurrently.
        text = (
            "1  17:00:00.000  a.exe:1  OPEN  C:\\f  SUCCESS Options: Open NoBuffer\n"
            "2  17:00:00.010  b.exe:2  OPEN  C:\\f  SUCCESS Options: Open\n"
            "3  17:00:00.020  a.exe:1  READ  C:\\f  LCN: 1 Offset: 0 Length: 512\n"
            "4  17:00:00.030  b.exe:2  READ  C:\\f  LCN: 1 Offset: 0 Length: 512\n"
        )
        requests, _ = ingest_text(text, system_processes=())
        assert requests[2].mode is AccessMode.NO_BUFFER
        assert requests[3].mode is AccessMode.NORMAL


class TestCanonicalRoundTrip:
    def test_empty_round_trip(self):
        sink = io.StringIO()
        count = write_canonical([], sink)
        assert count == len(sink.getvalue().encode())
        assert read_canonical(io.StringIO(sink.getvalue())) == []

    def test_sample_round_trip(self, sample_trace_text, tmp_path):
        requests, _ = ingest_text(sample_trace_text)
        path = tmp_path / "trace.txt"
        write_canonical(requests, path)
        assert read_canonical(path) == requests

    def test_generated_round_trip_10k(self, tmp_path):
        spec = GeneratorSpec(
            count=10_000,
            seed=2024,
            inter_arrival_us=DistSpec.exponential(200),
            size_bytes=DistSpec.uniform(512, 262_144),
            read_weight=3,
            write_weight=1,
            address=DistSpec.uniform(0, 2**30),
        )
        requests = generate(spec)
        path = tmp_path / "big.txt"
        write_canonical(requests, path)
        assert read_canonical(path) == requests

    def test_version_mismatch_rejected(self):
        with pytest.raises(CanonicalFormatError, match="version"):
            read_canonical(io.StringIO("#iostack-trace v999 cluster_bytes=4096\n"))

    def test_missing_header_rejected(self):
        with pytest.raises(CanonicalFormatError, match="header"):
            read_canonical(io.StringIO("0 APP OPEN 0 0 0 0 NORMAL\n"))

    @given(
        st.lists(
            st.builds(
                CanonicalRequest,
                issue_time_us=st.integers(0, 10**12),
                origin=st.sampled_from(list(Origin)),
                op=st.sampled_from(list(Op)),
                file_id=st.integers(0, 99),
                file_offset_bytes=st.integers(0, 2**40),
                length_bytes=st.integers(0, 2**30),
                disk_byte_addr=st.integers(0, 2**41),
                mode=st.sampled_from(list(AccessMode)),
            ),
            max_size=40,
        )
    )
    def test_round_trip_property(self, requests):
        sink = io.StringIO()
        write_canonical(requests, sink)
        assert read_canonical(io.StringIO(sink.getvalue())) == requests
