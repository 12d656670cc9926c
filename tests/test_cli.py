"""End-to-end command line runs."""

from __future__ import annotations

import contextlib
import io
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from iostack import Simulator, load_config, replay
from iostack.cli import main
from iostack.reports import REPORT_FORMAT_VERSION, format_request_table
from iostack.workload import generate

from conftest import SAMPLE_TRACE, echo_to_ini
from test_config_reports import BAD_VALUES, EVERY_KEY, REMOVED_KEYS, with_bad_value

CONFIG = """
[disk]
profile = fujitsu_man3184mp

[workload]
count = 5
seed = 42
mode = NO_BUFFER
size_bytes = constant:65536
inter_arrival_us = constant:0
address = sequential
"""


#: A tracer-format trace whose last READ comes from a process that never
#: opened the file: that line is dropped and reported.
ORPHAN_READ_TRACE = (
    "1\t17:00:00.000\tapp.exe:1\tOPEN\tC:\\f\tSUCCESS Options: Open\n"
    "2\t17:00:00.010\tapp.exe:1\tREAD\tC:\\f\tLCN: 10 Offset: 0 Length: 4096\n"
    "3\t17:00:00.020\tapp.exe:2\tREAD\tC:\\f\tLCN: 10 Offset: 0 Length: 4096\n"
)


def write_file(path: Path, body: str | bytes) -> Path:
    """``path`` holding ``body``: a text as UTF-8, bytes as they are."""

    path.write_bytes(body.encode() if isinstance(body, str) else body)
    return path


def write_config(tmp_path: Path, body: str | bytes = CONFIG) -> Path:
    return write_file(tmp_path / "sim.ini", body)


class TestCli:
    def test_generate_run_writes_reports(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--generate", "--output", str(out)])
        assert code == 0
        assert (out / "requests.csv").exists()
        assert (out / "summary.txt").exists()
        assert not (out / "events.log").exists()
        stdout = capsys.readouterr().out
        assert "requests=7" in stdout  # OPEN + 5 reads + CLOSE

    def test_dump_events(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--generate", "--output", str(out), "--dump-events"]) == 0
        assert (out / "events.log").read_text().startswith("#iostack-events")

    def test_dump_events_runs_once(self, tmp_path, monkeypatch):
        # The log streams from the run the reports describe, not from a re-run.
        runs = []
        inner = Simulator.run

        def counted(sim):
            runs.append(sim)
            inner(sim)

        monkeypatch.setattr(Simulator, "run", counted)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--generate", "--output", str(out), "--dump-events"]) == 0
        assert len(runs) == 1
        spec = load_config(CONFIG)
        result = replay(generate(spec.workloads[0]), spec.stack, spec.policy)
        header = f"#iostack-events v{REPORT_FORMAT_VERSION}\n"
        assert (out / "events.log").read_bytes() == (header + result.event_log.to_text()).encode()
        assert (out / "requests.csv").read_text() == format_request_table(result.records)

    def test_trace_run_from_tracer_text(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trace = tmp_path / "capture.txt"
        trace.write_text(SAMPLE_TRACE)
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--trace", str(trace), "--output", str(out)])
        assert code == 0
        stdout = capsys.readouterr().out
        # 7 application-origin records replayed (system helpers excluded).
        assert "requests=7" in stdout

    def test_dropped_trace_line_reported(self, tmp_path, capsys):
        cfg = write_config(tmp_path)
        trace = write_file(tmp_path / "capture.txt", ORPHAN_READ_TRACE)
        code = main(["--config", str(cfg), "--trace", str(trace), "--output", str(tmp_path / "out")])
        assert code == 0
        captured = capsys.readouterr()
        assert captured.err.splitlines() == ["simulate: dropped line 3: OrphanIO"]
        assert "requests=2" in captured.out

    def test_canonical_trace_autodetected(self, tmp_path):
        from iostack import ingest_text, write_canonical

        requests, _ = ingest_text(SAMPLE_TRACE)
        canon = tmp_path / "canon.txt"
        write_canonical(requests, canon)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(["--config", str(cfg), "--trace", str(canon), "--output", str(out)]) == 0

    def test_config_error_exit_code(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "[disk]\nprofile = nope\n")
        code = main(["--config", str(cfg), "--generate", "--output", str(tmp_path / "o")])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_seed_override_changes_stream(self, tmp_path):
        cfg = write_config(
            tmp_path,
            CONFIG.replace("constant:65536", "uniform:512:262144").replace(
                "constant:0", "exponential:100"
            ),
        )
        out_a, out_b, out_c = (tmp_path / n for n in ("a", "b", "c"))
        main(["--config", str(cfg), "--generate", "--output", str(out_a), "--seed", "1"])
        main(["--config", str(cfg), "--generate", "--output", str(out_b), "--seed", "2"])
        main(["--config", str(cfg), "--generate", "--output", str(out_c), "--seed", "1"])
        a, b, c = ((p / "requests.csv").read_text() for p in (out_a, out_b, out_c))
        assert a == c
        assert a != b

    def test_replay_mode_override(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        assert main(
            ["--config", str(cfg), "--generate", "--output", str(out), "--replay", "open"]
        ) == 0

    def test_tolerance_and_baseline_flags(self, tmp_path):
        from iostack import write_baseline

        base = tmp_path / "base.txt"
        write_baseline({1: 10_000}, base)
        cfg = write_config(tmp_path)
        out = tmp_path / "out"
        code = main(
            [
                "--config", str(cfg), "--generate", "--output", str(out),
                "--baseline", str(base), "--tolerance-us", "500",
            ]
        )
        assert code == 0


    def test_summary_config_block_reproduces_the_run(self, tmp_path):
        assert_echo_reproduces(tmp_path, [])

    def test_summary_config_block_reproduces_an_overridden_run(self, tmp_path):
        from iostack import write_baseline

        base = tmp_path / "base.txt"
        write_baseline({i: 2_000 + 37 * i for i in range(0, 200, 3)}, base)
        flags = ["--seed", "7", "--replay", "open", "--tolerance-us", "100"]
        echo = assert_echo_reproduces(tmp_path, [*flags, "--baseline", str(base)])
        assert (echo["workload0.seed"], echo["replay.mode"]) == ("7", "open")
        assert (echo["replay.tolerance_us"], echo["replay.baseline"]) == ("100", str(base))


def assert_echo_reproduces(tmp_path: Path, flags: list[str]) -> dict[str, str]:
    """Run the demo config with ``flags``, then its summary's ``[config]`` block alone.

    Both runs must write the same request table and summary; returns the echo.
    """

    sample = Path(__file__).parent.parent / "demos" / "sample_config.ini"
    first, second = tmp_path / "first", tmp_path / "second"
    assert main(["--config", str(sample), "--generate", "--output", str(first), *flags]) == 0
    summary = (first / "summary.txt").read_text().splitlines()
    block = summary[summary.index("[config]") + 1 :]
    echo = dict(line.split("=", 1) for line in block)
    reloaded = write_config(tmp_path, echo_to_ini(echo))
    assert main(["--config", str(reloaded), "--generate", "--output", str(second)]) == 0
    for name in ("requests.csv", "summary.txt"):
        assert (second / name).read_bytes() == (first / name).read_bytes()
    return echo


# The metadata write after each write-through write lands far beyond the
# drive's last sector, so the disk stage fails inside the replay.
STAGE_FAULT_CONFIG = """
[disk]
profile = fujitsu_man3184mp

[os]
metadata_disk_addr = 40000000000

[workload]
count = 4
seed = 42
mode = WRITE_THROUGH
size_bytes = constant:65536
inter_arrival_us = constant:0
read_weight = 0
write_weight = 1
address = sequential
"""

# A 4 KB sector size used to scale the geometry's capacity while the drive
# cache kept counting 512-byte sectors, so this read, inside the scaled
# capacity, failed in the disk stage.  The sector size is no longer a key.
SECTOR_4K_CONFIG = CONFIG.replace(
    "profile = fujitsu_man3184mp", "profile = fujitsu_man3184mp\nsector_bytes = 4096"
).replace("address = sequential", "address = random_choice:40000000000")


#: The file name each input-file option of the test below is written to.
INPUT_FILES = {"--baseline": "base.txt", "--trace": "trace.txt"}

#: ``[workload]`` keys that place a request in time or on the disk.
NON_NEGATIVE_KEYS = ("address_base", "disk_base_bytes", "start_time_us")

#: A canonical trace of one file: open it, read a block, write into the next.
CANONICAL_TRACE = (
    "#iostack-trace v1 cluster_bytes=4096\n"
    "0 APP OPEN 0 0 0 0 NORMAL\n"
    "10 APP READ 0 0 65536 0 NORMAL\n"
    "20 APP WRITE 0 65536 4096 65536 NORMAL\n"
    "30 APP CLOSE 0 0 0 0 NORMAL\n"
)

#: ``CANONICAL_TRACE`` with its write far beyond the disk's last byte.
OVERSIZED_TRACE = CANONICAL_TRACE.replace("4096 65536 NORMAL", "4096 40000000000 NORMAL")

# Each weight is finite, but their sum is not: every request used to become
# a write.
HUGE_WEIGHTS = CONFIG.replace(
    "address = sequential", "address = sequential\nread_weight = 1e308\nwrite_weight = 1e308"
)


@pytest.mark.parametrize(
    "files, extra, config, message",
    [
        ({"--baseline": "0 100\n"}, [], CONFIG, "missing '#iostack-baseline v' header"),
        (
            {"--baseline": "#iostack-baseline v1\n0 100 7\n"},
            [],
            CONFIG,
            "expected '<ordinal> <latency_us>'",
        ),
        (
            {"--baseline": "#iostack-baseline v1\n0 -5\n"},
            [],
            CONFIG,
            "base.txt:2: ordinal and latency must be >= 0",
        ),
        (
            {"--baseline": "#iostack-baseline v1\n1 100\n1 200\n"},
            [],
            CONFIG,
            "base.txt:3: ordinal 1 is given twice",
        ),
        ({}, ["--tolerance-us", "-5"], CONFIG, "argument --tolerance-us: must be >= 0"),
        ({}, ["--seed", "-3"], CONFIG, "argument --seed: must be >= 0"),
        ({}, [], CONFIG.replace("seed = 42", "seed = -1"), "workload: seed must be >= 0"),
        ({}, [], STAGE_FAULT_CONFIG, "stage DISK failed"),
        ({}, [], SECTOR_4K_CONFIG, "disk.sector_bytes: unknown key"),
        *(({}, [], with_bad_value(key, value), f"{key}: ") for key, value in BAD_VALUES.values()),
        (
            {},
            [],
            with_bad_value("disk_cache.segment_count", "0"),
            "disk_cache: segment_count must be >= 1",
        ),
        (
            {},
            [],
            with_bad_value("disk_cache.segment_bytes", "0"),
            "disk_cache: segment_bytes must be a positive multiple of 512",
        ),
        (
            {},
            [],
            with_bad_value("disk_cache.segment_bytes", "1000"),
            "disk_cache: segment_bytes must be a positive multiple of 512",
        ),
        # Used to build this many segments, until memory ran out.
        (
            {},
            [],
            with_bad_value("disk_cache.segment_count", "99999999999999999999999"),
            "disk_cache.segment_count: 99999999999999999999999 segments of segment_bytes",
        ),
        *(
            ({}, [], with_bad_value(f"workload.{key}", "-1"), f"workload: {key} must be >= 0")
            for key in NON_NEGATIVE_KEYS
        ),
        ({}, [], HUGE_WEIGHTS, "workload: read_weight + write_weight must be finite"),
        *(({}, [], with_bad_value(key, "1"), f"{key}: unknown key") for key in REMOVED_KEYS),
        # Latin-1 text: the 0xe9 of "café" or "résultats" is not UTF-8.
        ({}, [], "# café\n".encode("latin-1") + CONFIG.encode(), "sim.ini: not UTF-8 text"),
        (
            {"--trace": SAMPLE_TRACE.replace("results", "résultats").encode("latin-1")},
            [],
            CONFIG,
            "trace.txt: not UTF-8 text",
        ),
        (
            {"--baseline": "#iostack-baseline v1\n# café\n0 100\n".encode("latin-1")},
            [],
            CONFIG,
            "base.txt: not UTF-8 text",
        ),
        # Each used to raise a bare ValueError: a traceback and exit 1.
        *(
            ({"--trace": CANONICAL_TRACE.replace(*change)}, [], CONFIG, f"trace.txt: line 3: {message}")
            for change, message in (
                (("10 APP", "10 BOGUS"), "'BOGUS' is not a valid Origin"),
                (("10 APP", "x APP"), "invalid literal for int() with base 10: 'x'"),
                (("10 APP", "-5 APP"), "issue_time_us must be >= 0"),
                (("65536 0 NORMAL", "65536 0 normal"), "'normal' is not a valid AccessMode"),
            )
        ),
        # configparser's message used to span two lines.
        (
            {},
            [],
            CONFIG + "oops\n",
            "sim.ini: config syntax: Source contains parsing errors: [line 12]: 'oops",
        ),
        (
            {},
            [],
            "count = 5\n" + CONFIG,
            "sim.ini: config syntax: File contains no section headers. line: 1",
        ),
        # A form feed ends a line for ``splitlines`` but not for configparser:
        # the section name used to print across two lines.
        ({}, [], CONFIG.replace("[workload]", "[work\fload]"), "[line 5]: '[work"),
        # The tracer format used to meet a bad cluster size only in
        # ``normalize``: a traceback and exit 1.
        *(
            (
                {"--trace": SAMPLE_TRACE},
                [],
                with_bad_value("trace.cluster_bytes", value),
                f"sim.ini: trace.cluster_bytes: must be a power of two >= 512, got {value}",
            )
            for value in ("1000", "-4096")
        ),
        (
            {"--trace": SAMPLE_TRACE.replace("17:03:26.427", "17:03:25.427")},
            [],
            CONFIG,
            "trace.txt: seq 104: wallclock went backwards",
        ),
        # Used to name neither the trace nor the request.
        (
            {"--trace": OVERSIZED_TRACE},
            [],
            CONFIG,
            "trace.txt: request 2 at disk byte 40000000000 (+4096) exceeds the configured "
            "disk capacity of",
        ),
        (
            {},
            [],
            with_bad_value("os.working_set_bytes", "6291456"),
            "sim.ini: os: working_set_bytes must exceed the 6291456-byte reserve",
        ),
    ],
    ids=[
        "baseline-header",
        "baseline-fields",
        "baseline-negative",
        "baseline-repeated",
        "negative-tolerance",
        "negative-seed-flag",
        "negative-seed-config",
        "stage-fault",
        "sector-bytes-key",
        *(f"bad-{kind}" for kind in BAD_VALUES),
        "bad-segment-count",
        "bad-segment-bytes-zero",
        "bad-segment-bytes-unaligned",
        "oversized-drive-cache",
        *(f"negative-{key}" for key in NON_NEGATIVE_KEYS),
        "huge-weights",
        *(f"removed-{key}" for key in REMOVED_KEYS),
        "config-not-utf8",
        "trace-not-utf8",
        "baseline-not-utf8",
        "trace-bad-origin",
        "trace-bad-issue-time",
        "trace-negative-issue-time",
        "trace-bad-mode",
        "config-line-without-equals",
        "config-no-section-header",
        "config-form-feed-in-name",
        "trace-cluster-bytes-not-power-of-two",
        "trace-cluster-bytes-negative",
        "trace-time-backwards",
        "trace-request-beyond-disk",
        "working-set-within-reserve",
    ],
)
def test_bad_input_exits_2_with_one_line(tmp_path, capsys, files, extra, config, message):
    argv = ["--config", str(write_config(tmp_path, config)), "--output", str(tmp_path / "out")]
    for option, body in files.items():
        argv += [option, str(write_file(tmp_path / INPUT_FILES[option], body))]
    if "--trace" not in files:
        argv.append("--generate")
    try:
        code = main([*argv, *extra])
    except SystemExit as exc:  # argparse rejects the argument itself, after its usage
        code = exc.code
        err = capsys.readouterr().err.splitlines()[-1:]
    else:
        err = capsys.readouterr().err.splitlines()
    assert code == 2
    assert len(err) == 1 and err[0].startswith("simulate: error: ") and message in err[0]


def dump_events_error(run_dir: Path, capsys, config: str, trace: str | None = None):
    """The one error line of a failing ``--dump-events`` run and the events it logged."""

    run_dir.mkdir()
    argv = ["--config", str(write_config(run_dir, config)), "--output", str(run_dir / "out")]
    argv += ["--trace", str(write_file(run_dir / "trace.txt", trace))] if trace else ["--generate"]
    assert main([*argv, "--dump-events"]) == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("simulate: error: ")
    lines = (run_dir / "out" / "events.log").read_text().splitlines()
    assert lines[0] == f"#iostack-events v{REPORT_FORMAT_VERSION}"
    return err[0], lines[1:]


def test_replay_error_under_dump_events_leaves_the_events_before_it(tmp_path, capsys):
    # A request beyond the disk is rejected before the first event: the
    # log holds its header alone.
    err, events = dump_events_error(tmp_path / "oversized", capsys, CONFIG, OVERSIZED_TRACE)
    assert "exceeds the configured disk capacity" in err and events == []
    # A stage fault stops the run part-way: the log ends with the event
    # whose handler raised.
    err, events = dump_events_error(tmp_path / "fault", capsys, STAGE_FAULT_CONFIG)
    assert events and f"failed on {events[-1]}: " in err


#: Values a mistyped config might hold: signs, zero, huge, the non-finite
#: floats, nothing, words, and distributions with bad parameters.
FUZZ_TOKENS = (
    "-1", "0", "0.5", "99999999999999999999999", "1e308", "-1e308", "inf", "-inf", "nan", "",
    "many", "1:2", "zipf:2", "random_choice", "constant:-1", "constant:1e308", "uniform:5:1",
    "uniform:0:1e308", "exponential:0", "normal:0:-1", "binomial:0.5:2", "poisson:-1",
)


def run_quietly(argv: list[str]) -> tuple[int, list[str]]:
    """Exit code and stderr lines of ``main(argv)``; its stdout is dropped."""

    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue().splitlines()


#: The ``--generate`` run replays the workload section; the other replays
#: the tracer-format trace that ``trace.path`` names, so the ``trace.*``
#: keys are used.
SOURCES = (["--generate"], [])


def run_every_key_config(key: str, value: str, source: list[str]) -> tuple[int, list[str]]:
    """Exit code and stderr lines of a run of ``EVERY_KEY`` with ``key`` set to ``value``."""

    with tempfile.TemporaryDirectory() as tmp:
        base = write_file(Path(tmp) / "base.txt", "#iostack-baseline v1\n0 100\n")
        trace = write_file(Path(tmp) / "trace.txt", SAMPLE_TRACE)
        # 8192-byte clusters put the trace's last write beyond the disk.
        entries = {
            **EVERY_KEY,
            "replay.baseline": str(base),
            "trace.path": str(trace),
            "trace.cluster_bytes": "4096",
            key: value,
        }
        argv = ["--config", str(write_config(Path(tmp), echo_to_ini(entries)))]
        return run_quietly([*argv, *source, "--output", str(Path(tmp) / "out")])


def test_every_key_config_runs():
    for source in SOURCES:
        assert run_every_key_config("workload0.count", "64", source) == (0, [])


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(key=st.sampled_from(sorted(EVERY_KEY)), token=st.sampled_from(FUZZ_TOKENS))
def test_any_value_of_any_key_exits_0_or_2_with_one_line(key, token):
    if key.endswith(".count") and token.isdigit():
        # A huge count is a long run, not a bad input.
        token = str(min(int(token), 64))
    for source in SOURCES:
        code, err = run_every_key_config(key, token, source)
        assert code in (0, 2)
        if code == 2:
            assert len(err) == 1 and err[0].startswith("simulate: error: "), err


#: A config, a canonical trace and a baseline that replay together; each is
#: the body of its input option.
VALID_INPUTS = {
    "--config": (
        "[disk]\nprofile = fujitsu_man3184mp\n\n"
        "[disk_cache]\nsegment_count = 4\nwrite_policy = WRITE_BACK\n\n"
        "[os]\nscheduler_policy = LOOK\ncache_capacity_bytes = 1048576\n\n"
        "[replay]\nmode = closed\ntolerance_us = 100\n"
    ),
    "--trace": CANONICAL_TRACE,
    "--baseline": "#iostack-baseline v1\n0 100\n1 2000\n2 500\n",
}

#: Bytes that change what a field means: digits, signs, separators, line
#: and section syntax.
SYNTAX_BYTES = b"0159-+.e :=[]#\t\n"


@st.composite
def mutated(draw, body: str) -> bytes:
    """``body`` as UTF-8 with 1-3 bytes replaced, inserted or deleted."""

    data = bytearray(body.encode())
    for _ in range(draw(st.integers(1, 3))):
        at = draw(st.integers(0, len(data) - 1))
        edit = draw(st.sampled_from(("replace", "insert", "delete")))
        if edit == "delete":
            del data[at]
        else:
            byte = draw(st.sampled_from(SYNTAX_BYTES) | st.integers(0, 255))
            data[at : at + (edit == "replace")] = bytes((byte,))
    return bytes(data)


def run_mutated(option: str, body: bytes) -> tuple[int, list[str]]:
    """A run of ``VALID_INPUTS`` with the file of ``option`` holding ``body``."""

    with tempfile.TemporaryDirectory() as tmp:
        argv = ["--output", str(Path(tmp) / "out")]
        for name, text in VALID_INPUTS.items():
            path = Path(tmp) / INPUT_FILES.get(name, "sim.ini")
            argv += [name, str(write_file(path, body if name == option else text))]
        return run_quietly(argv)


def test_valid_inputs_run():
    assert run_mutated("--trace", VALID_INPUTS["--trace"].encode()) == (0, [])


@settings(max_examples=600, deadline=None, derandomize=True, database=None)
@given(option=st.sampled_from(sorted(VALID_INPUTS)), data=st.data())
def test_mutated_input_bytes_exit_0_or_2_with_one_line(option, data):
    code, err = run_mutated(option, data.draw(mutated(VALID_INPUTS[option])))
    assert code in (0, 2)
    if code == 2:
        assert len(err) == 1 and err[0].startswith("simulate: error: "), err
