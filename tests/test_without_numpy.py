"""Replaying a trace never loads numpy; only generating a workload does.

Each check runs a fresh interpreter, since this test process has numpy
loaded already.
"""

from __future__ import annotations

import os
import pickle
import subprocess
import sys
from pathlib import Path

from iostack import generate, load_config, write_canonical
from test_workload import GOLDEN_SPEC, GOLDEN_STREAM

SRC = Path(__file__).resolve().parents[1] / "src"
SAMPLE_CONFIG = Path(__file__).resolve().parents[1] / "demos" / "sample_config.ini"

REPLAY_A_TRACE = """
import sys
from pathlib import Path

from iostack import load_config, read_canonical, replay
from iostack.cli import main

trace, config, out = sys.argv[1:]
spec = load_config(Path(config).read_text(encoding="utf-8"))
result = replay(read_canonical(trace), spec.stack, spec.policy)
assert result.records
code = main(["--config", config, "--trace", trace, "--output", out])
print(f"exit={code} numpy_loaded={'numpy' in sys.modules}")
"""

GENERATE_A_STREAM = """
import io
import pickle
import sys

from iostack import generate, write_canonical

before = "numpy" in sys.modules
requests = generate(pickle.loads(sys.stdin.buffer.read()))
after = "numpy" in sys.modules
sink = io.StringIO()
write_canonical(requests, sink)
print(f"numpy_loaded={before},{after}")
print(sink.getvalue(), end="")
"""


def run_fresh(code: str, *args: str, stdin: bytes = b"") -> str:
    """Standard output of ``code`` run by a new interpreter on ``src/``."""

    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        input=stdin, env=env, capture_output=True, timeout=120, check=True,
    )
    return done.stdout.decode()


def test_trace_replay_and_cli_never_import_numpy(tmp_path):
    spec = load_config(SAMPLE_CONFIG.read_text(encoding="utf-8"))
    trace = tmp_path / "trace.txt"
    requests = sorted((r for w in spec.workloads for r in generate(w)), key=lambda r: r.issue_time_us)
    write_canonical(requests, trace)
    out = run_fresh(REPLAY_A_TRACE, str(trace), str(SAMPLE_CONFIG), str(tmp_path / "out"))
    assert out.splitlines()[-1] == "exit=0 numpy_loaded=False"
    assert (tmp_path / "out" / "requests.csv").is_file()


def test_generate_imports_numpy_on_its_first_call_and_keeps_the_stream():
    out = run_fresh(GENERATE_A_STREAM, stdin=pickle.dumps(GOLDEN_SPEC))
    first, _, stream = out.partition("\n")
    assert first == "numpy_loaded=False,True"
    assert stream == GOLDEN_STREAM
