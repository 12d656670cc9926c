"""Smoke test of the benchmark harness at small n, so it cannot rot.

    python -m pytest perfbench

Each workload runs once untraced and once traced in smoke mode.  The test
checks that the result line names exactly the metrics ``BENCHMARK.json``
declares, with their units, that every check passed and that no request
failed.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload: str, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", "3", "--seconds", "0.1",
           "--trace", str(trace), "--smoke"]
    if cmd[0] == "python3":
        cmd[0] = sys.executable
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload: str, trace: int) -> None:
    result = _run(workload, trace)
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {n: m["unit"] for n, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in declared
    }
    assert result["correct"] is True
    assert result["attempted"] > 0
    assert result["failed"] == 0
    if not trace:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_bare_directory_fails_without_result(tmp_path: Path) -> None:
    """Without the program sources the benchmark exits non-zero, printing no result."""

    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    for path in SPEC["paths"]:
        dest = tmp_path / path
        dest.mkdir(parents=True)
        for f in (ROOT / path).iterdir():
            if f.is_file():
                (dest / f.name).write_bytes(f.read_bytes())
    out = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
