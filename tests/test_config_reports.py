"""Configuration loading/validation, report emission, the error metric."""

from __future__ import annotations

from pathlib import Path

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
    write_baseline,
)
from iostack.requests import RequestRecord, Origin, Summary
from iostack.scheduler import Policy

from conftest import echo_to_ini, observed, plain_stack
from test_replay import stream

MINIMAL = """
[disk]
profile = fujitsu_man3184mp
"""


class TestLoadConfig:
    def test_profile_populates_geometry_and_cache(self):
        spec = load_config(MINIMAL)
        assert spec.stack.geometry.rpm == 10_000
        cache = spec.stack.cache
        assert cache.segment_count * cache.segment_bytes == 8 * 1024 * 1024
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
        assert spec.stack.fs.cache_capacity_bytes == 128 * 1024 * 1024
        assert spec.stack.fs.working_set_bytes == 8 * 1024 * 1024
        assert spec.echo["os.cache_capacity_bytes"] == str(128 * 1024 * 1024)
        assert spec.echo["os.working_set_bytes"] == str(8 * 1024 * 1024)

    def test_overrides_on_top_of_profile(self):
        spec = load_config(MINIMAL + "track_skew_sectors = 0\n[os]\nmiss_path_cost_us = 5\n")
        assert spec.stack.geometry.track_skew_sectors == 0
        assert spec.stack.fs.miss_path_cost_us == 5

    def test_scheduler_policy_parsed(self):
        spec = load_config(MINIMAL + "[os]\nscheduler_policy = C_LOOK\n")
        assert spec.stack.scheduler_policy is Policy.C_LOOK
        expected = "os.scheduler_policy: expected one of FCFS, LOOK, C_LOOK, got 'SCAN'"
        with pytest.raises(ConfigError, match=f"^{expected}$"):
            load_config(MINIMAL + "[os]\nscheduler_policy = SCAN\n")

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


SAMPLE_CONFIG = Path(__file__).parent.parent / "demos" / "sample_config.ini"
WORKLOAD = MINIMAL + "[workload]\ncount = 1\nseed = 1\n"

#: Every accepted key of every section, each set to a value that differs from
#: its default (or, for the profile's keys, from the profile's value).  The
#: workload section is named as the echo names it.
EVERY_KEY = {
    "disk.profile": "fujitsu_man3184mp",
    "disk.cylinders": "20000",
    "disk.heads": "2",
    "disk.zones": "0:700,10000:500",
    "disk.rpm": "7200",
    "disk.track_skew_sectors": "10",
    "disk.cylinder_skew_sectors": "20",
    "disk.spares_per_zone_tail": "8",
    "disk.seek_read_min_us": "512.3456",
    "disk.seek_read_avg_us": "4000.25",
    "disk.seek_read_max_us": "9000.5",
    "disk.seek_write_min_us": "700.125",
    "disk.seek_write_avg_us": "5500.75",
    "disk.seek_write_max_us": "13000.5",
    "disk.head_switch_us": "350.5",
    "disk_cache.segment_count": "4",
    "disk_cache.segment_bytes": "262144",
    "disk_cache.read_prefetch": "NONE",
    "disk_cache.write_policy": "WRITE_THROUGH",
    "os.working_set_bytes": "16777216",
    "os.fastio_hit_cost_us": "12",
    "os.miss_path_cost_us": "60",
    "os.memcopy_bytes_per_us": "4096",
    "os.cache_capacity_bytes": "67108864",
    "os.metadata_disk_addr": "1048576",
    "os.scheduler_policy": "C_LOOK",
    "trace.cluster_bytes": "8192",
    "trace.include_system": "true",
    "trace.process_deny": "svchost.exe,lsass.exe",
    "trace.path": "capture.txt",
    "replay.mode": "open",
    "replay.tolerance_us": "250",
    "replay.baseline": "base.txt",
    "workload0.count": "64",
    "workload0.seed": "9",
    "workload0.inter_arrival_us": "exponential:250.5",
    "workload0.inter_arrival_us_clamp": "10:5000",
    "workload0.size_bytes": "uniform:4096:65536",
    "workload0.size_bytes_clamp": "8192:32768",
    "workload0.read_weight": "0.7",
    "workload0.write_weight": "0.3",
    "workload0.mode": "NO_BUFFER",
    "workload0.address": "uniform:0:536805376",
    "workload0.address_clamp": "1048576:536805376",
    "workload0.address_base": "4096",
    "workload0.file_id": "3",
    "workload0.disk_base_bytes": "1048576",
    "workload0.size_granularity_bytes": "4096",
    "workload0.start_time_us": "1000",
    "workload0.emit_open_close": "false",
}

#: Each section's accepted keys: no more, no fewer.
ACCEPTED_KEYS = {
    "disk": {
        "profile", "cylinders", "heads", "zones", "rpm", "track_skew_sectors",
        "cylinder_skew_sectors", "spares_per_zone_tail", "seek_read_min_us",
        "seek_read_avg_us", "seek_read_max_us", "seek_write_min_us", "seek_write_avg_us",
        "seek_write_max_us", "head_switch_us",
    },
    "disk_cache": {"segment_count", "segment_bytes", "read_prefetch", "write_policy"},
    "os": {
        "working_set_bytes", "fastio_hit_cost_us", "miss_path_cost_us", "memcopy_bytes_per_us",
        "cache_capacity_bytes", "metadata_disk_addr", "scheduler_policy",
    },
    "trace": {"path", "cluster_bytes", "include_system", "process_deny"},
    "replay": {"mode", "tolerance_us", "baseline"},
    "workload0": {
        "count", "seed", "inter_arrival_us", "inter_arrival_us_clamp", "size_bytes",
        "size_bytes_clamp", "read_weight", "write_weight", "mode", "address", "address_clamp",
        "address_base", "file_id", "disk_base_bytes", "size_granularity_bytes",
        "start_time_us", "emit_open_close",
    },
}
#: Echoed only when set.
OPTIONAL_KEYS = {
    "trace.path",
    "replay.baseline",
    "workload0.inter_arrival_us_clamp",
    "workload0.size_bytes_clamp",
    "workload0.address_clamp",
}


def dotted(sections: dict[str, set[str]]) -> set[str]:
    return {f"{name}.{key}" for name, keys in sections.items() for key in keys}


class TestRoundTrip:
    def assert_round_trip(self, text: str):
        spec = load_config(text)
        back = load_config(echo_to_ini(spec.echo))
        assert back.stack == spec.stack
        assert back.policy == spec.policy
        assert back.workloads == spec.workloads
        assert (back.trace_path, back.cluster_bytes, back.system_processes) == (
            spec.trace_path,
            spec.cluster_bytes,
            spec.system_processes,
        )
        assert back.baseline_path == spec.baseline_path
        assert back.echo == spec.echo
        return spec

    def test_demo_config(self):
        spec = self.assert_round_trip(SAMPLE_CONFIG.read_text())
        assert spec.echo["replay.mode"] == "closed"

    def test_every_key_non_default(self):
        spec = self.assert_round_trip(echo_to_ini(EVERY_KEY))
        default = load_config(WORKLOAD).echo
        changed = {key for key in default if key in spec.echo and spec.echo[key] != default[key]}
        assert changed == set(default) - {"disk.profile"}
        w = spec.workloads[0]
        assert (w.read_weight, w.write_weight) == (0.7, 0.3)
        assert w.size_bytes.clamp == (8192, 32768)
        assert w.address.params == (0, 536_805_376)
        assert spec.stack.seek.read_min_us == 512.3456
        assert spec.stack.include_system_requests
        assert spec.policy.mode is ReplayMode.OPEN_LOOP_TIMED
        assert spec.echo["disk.seek_read_min_us"] == "512.3456"
        assert spec.echo["workload0.address"] == "uniform:0:536805376"
        assert spec.echo["workload0.size_bytes_clamp"] == "8192:32768"


#: Keys of removed knobs: cache keys that became paper constants, the
#: LOCAL_512K switch or a derived size, and the LBA mapping, which had one
#: used value (cylinder-major).  The read-ahead trigger and the dirty-data
#: reserve are Windows cache-manager constants.
REMOVED_KEYS = (
    "disk.mapping",
    "disk_cache.total_bytes",
    "disk_cache.prefetch_block_bytes",
    "disk_cache.locality_radius_sectors",
    "disk_cache.fill_chunk_sectors",
    "disk_cache.reposition_penalty",
    "os.block_bytes",
    "os.view_bytes",
    "os.readahead_window_factor",
    "os.metadata_write_bytes",
    "os.open_close_cost_us",
    "os.readahead_trigger",
    "os.reserve_constant_bytes",
)


class TestNoNewKnob:
    def test_every_key_config_sets_exactly_the_accepted_keys(self):
        assert set(EVERY_KEY) == dotted(ACCEPTED_KEYS)

    def test_echo_keys_are_the_accepted_keys(self):
        assert set(load_config(echo_to_ini(EVERY_KEY)).echo) == dotted(ACCEPTED_KEYS)
        assert set(load_config(WORKLOAD).echo) == dotted(ACCEPTED_KEYS) - OPTIONAL_KEYS

    @pytest.mark.parametrize(
        "key",
        [
            "disk_cache.background_destage",
            "os.progressive_max_bytes",
            "os.progressive_exact_sizes",
            "os.periodic_block_overrides",
            *REMOVED_KEYS,
        ],
    )
    def test_removed_or_internal_field_is_not_a_key(self, key):
        with pytest.raises(ConfigError, match=f"{key}: unknown key"):
            load_config(echo_to_ini({"disk.profile": "fujitsu_man3184mp", key: "1"}))


#: (section.key, bad value), one per value parser.
BAD_VALUES = {
    "int": ("disk.cylinders", "many"),
    "float": ("disk.seek_read_min_us", "fast"),
    "bool": ("trace.include_system", "maybe"),
    "enum": ("disk_cache.write_policy", "sideways"),
    "zones": ("disk.zones", "0-736"),
    "distribution": ("workload.size_bytes", "zipf:2"),
    "clamp": ("workload.size_bytes_clamp", "8192"),
    "infinite-parameter": ("workload.inter_arrival_us", "constant:inf"),
    "nan-weight": ("workload.read_weight", "nan"),
    "scan-policy": ("os.scheduler_policy", "SCAN"),
    "c-scan-policy": ("os.scheduler_policy", "C_SCAN"),
}


def with_bad_value(key: str, value: str) -> str:
    """A config that generates one workload, with ``key`` set to ``value``."""

    entries = {
        "disk.profile": "fujitsu_man3184mp",
        "workload.count": "1",
        "workload.seed": "1",
        "workload.size_bytes": "constant:4096",
    }
    return echo_to_ini({**entries, key: value})


@pytest.mark.parametrize("key, value", BAD_VALUES.values(), ids=BAD_VALUES)
def test_bad_value_names_the_key(key, value):
    with pytest.raises(ConfigError, match=f"^{key}: "):
        load_config(with_bad_value(key, value))


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
            result, events = observed(trace, plain_stack())
            out = tmp_path / f"run{run}"
            files = emit_reports(result.records, result.summary, out)
            texts.append((*(f.read_text() for f in files), *(e.describe() for e in events)))
        assert texts[0] == texts[1]

    def test_baseline_round_trip(self, tmp_path):
        path = tmp_path / "base.txt"
        write_baseline({0: 5000, 3: 7500}, path)
        written = path.read_text(encoding="utf-8")
        # The file as written, then with a blank and a comment line after the header.
        for text in (written, written.replace("\n", "\n\n# measured\n", 1)):
            path.write_text(text, encoding="utf-8")
            assert load_baseline(path) == {0: 5000, 3: 7500}
