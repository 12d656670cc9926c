"""Configuration loading/validation, report emission, the error metric."""

from __future__ import annotations

import pytest

from iostack import (
    AccessMode,
    ConfigError,
    Op,
    ReadPrefetch,
    ReplayMode,
    ZeroBaseline,
    emit_reports,
    error_percent,
    load_baseline,
    load_config,
    replay,
    write_baseline,
)
from iostack.reports import REPORT_FORMAT_VERSION
from iostack.requests import RequestRecord, Origin, Summary
from iostack.scheduler import Policy

from conftest import plain_stack
from test_golden_log import run as run_golden
from test_replay import stream

MINIMAL = """
[disk]
profile = fujitsu_man3184mp
"""


class TestLoadConfig:
    def test_profile_populates_geometry_and_cache(self):
        spec = load_config(MINIMAL)
        assert spec.stack.geometry.rpm == 10_000
        assert spec.stack.cache.total_bytes == 8 * 1024 * 1024
        assert spec.stack.cache.read_prefetch is ReadPrefetch.LOCAL_512K
        assert spec.stack.seek.read_min_us == 400

    def test_negative_rpm_rejected_with_key_path(self):
        with pytest.raises(ConfigError, match="disk.rpm"):
            load_config("[disk]\nprofile = fujitsu_man3184mp\nrpm = -1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="disk.warp_speed"):
            load_config("[disk]\nprofile = fujitsu_man3184mp\nwarp_speed = 9\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="turbo"):
            load_config(MINIMAL + "[turbo]\nlevel = 11\n")

    def test_unknown_profile_lists_choices(self):
        with pytest.raises(ConfigError, match="available"):
            load_config("[disk]\nprofile = quantum_bigfoot\n")

    def test_explicit_geometry_without_profile(self):
        spec = load_config(
            "[disk]\n"
            "cylinders = 300\nheads = 2\nrpm = 7200\nzones = 0:400,150:300\n"
            "track_skew_sectors = 10\n"
            "seek_read_min_us = 500\nseek_read_avg_us = 4000\nseek_read_max_us = 9000\n"
        )
        g = spec.stack.geometry
        assert (g.cylinders, g.heads, g.rpm) == (300, 2, 7200)
        assert len(g.zones) == 2
        # Write seeks default to the read triple; switch cost to min seek.
        assert spec.stack.seek.write_max_us == 9000
        assert spec.stack.seek.head_switch_us == 500

    def test_missing_geometry_without_profile(self):
        with pytest.raises(ConfigError, match="required without a profile"):
            load_config("[disk]\nrpm = 7200\n")

    def test_omitted_os_section_defaults_echoed(self):
        spec = load_config(MINIMAL)
        assert spec.stack.fs.block_bytes == 65_536
        assert spec.stack.fs.readahead_trigger == 3
        assert spec.stack.fs.working_set_bytes == 8 * 1024 * 1024
        assert spec.echo["os.block_bytes"] == "65536"
        assert spec.echo["os.readahead_trigger"] == "3"
        assert spec.echo["os.working_set_bytes"] == str(8 * 1024 * 1024)

    def test_overrides_on_top_of_profile(self):
        spec = load_config(MINIMAL + "track_skew_sectors = 0\n[os]\nreadahead_trigger = 5\n")
        assert spec.stack.geometry.track_skew_sectors == 0
        assert spec.stack.fs.readahead_trigger == 5

    def test_scheduler_policy_parsed(self):
        spec = load_config(MINIMAL + "[os]\nscheduler_policy = C_LOOK\n")
        assert spec.stack.scheduler_policy is Policy.C_LOOK

    def test_replay_section(self):
        spec = load_config(MINIMAL + "[replay]\nmode = open\ntolerance_us = 250\n")
        assert spec.policy.mode is ReplayMode.OPEN_LOOP_TIMED
        assert spec.policy.tolerance_us == 250

    def test_bad_replay_mode(self):
        with pytest.raises(ConfigError, match="replay.mode"):
            load_config(MINIMAL + "[replay]\nmode = sideways\n")

    def test_workload_section(self):
        spec = load_config(
            MINIMAL
            + "[workload]\ncount = 10\nseed = 3\nmode = SEQUENTIAL\n"
            + "size_bytes = constant:65536\ninter_arrival_us = exponential:500\n"
            + "address = sequential\n"
        )
        w = spec.workloads[0]
        assert w.count == 10 and w.seed == 3
        assert w.mode is AccessMode.SEQUENTIAL

    def test_workload_requires_count_and_seed(self):
        with pytest.raises(ConfigError, match="workload.count"):
            load_config(MINIMAL + "[workload]\nseed = 1\n")

    def test_bad_distribution(self):
        with pytest.raises(ConfigError, match="workload.size_bytes"):
            load_config(MINIMAL + "[workload]\ncount = 1\nseed = 1\nsize_bytes = zipf:2\n")

    def test_echo_covers_every_section(self):
        spec = load_config(MINIMAL + "[workload]\ncount = 1\nseed = 1\n")
        prefixes = {key.split(".")[0] for key in spec.echo}
        assert {"disk", "disk_cache", "os", "trace", "replay", "workload0"} <= prefixes
        # Echoed keys are unique by construction (dict) and include the
        # profile name that resolved the rest.
        assert spec.echo["disk.profile"] == "fujitsu_man3184mp"


class TestErrorPercent:
    def test_identity_is_zero(self):
        assert error_percent(10_000, 10_000) == 0.0

    def test_formula(self):
        assert error_percent(100_000, 94_000) == pytest.approx(6.0)

    def test_symmetric_overshoot(self):
        assert error_percent(100_000, 106_000) == pytest.approx(6.0)

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroBaseline):
            error_percent(0, 1000)


class TestReports:
    def _records(self):
        return [
            RequestRecord(0, 0, 120, 65_536, Op.READ, AccessMode.NORMAL, Origin.APP),
            RequestRecord(1, 120, 200, 0, Op.CLOSE, AccessMode.NORMAL, Origin.APP),
        ]

    def test_empty_run_reports(self, tmp_path):
        files = emit_reports([], Summary(), tmp_path)
        table = files[0].read_text()
        assert table.splitlines()[1].startswith("id,")
        assert len(table.splitlines()) == 2  # header lines only
        summary = files[1].read_text()
        assert "total_requests=0" in summary

    def test_latency_column_sums_to_summary(self, tmp_path):
        records = self._records()
        summary = Summary.from_records(records)
        files = emit_reports(records, summary, tmp_path)
        rows = files[0].read_text().splitlines()[2:]
        total = sum(int(r.split(",")[3]) for r in rows)
        assert total == summary.total_response_us == 200

    def test_reports_byte_identical_across_runs(self, tmp_path):
        trace = stream([(Op.READ, i * 65_536, 65_536) for i in range(5)], AccessMode.NORMAL)
        texts = []
        for run in range(2):
            result = replay(trace, plain_stack())
            out = tmp_path / f"run{run}"
            files = emit_reports(result.records, result.summary, out, event_log=result.event_log)
            texts.append(tuple(f.read_text() for f in files))
        assert texts[0] == texts[1]

    def test_events_log_is_header_plus_log_text(self, tmp_path):
        result = run_golden("mixed_write_back")
        # Written first, so the file is streamed through a re-run of its own.
        files = emit_reports(result.records, result.summary, tmp_path, event_log=result.event_log)
        assert files[2].name == "events.log"
        expected = f"#iostack-events v{REPORT_FORMAT_VERSION}\n" + result.event_log.to_text()
        assert files[2].read_bytes() == expected.encode("utf-8")

    def test_baseline_round_trip(self, tmp_path):
        path = tmp_path / "base.txt"
        write_baseline({0: 5000, 3: 7500}, path)
        assert load_baseline(path) == {0: 5000, 3: 7500}
