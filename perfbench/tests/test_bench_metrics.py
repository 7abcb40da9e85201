"""The benchmark prints exactly the metric names and units BENCHMARK.json
declares, in both modes, with its contract's last-line keys, and scales
times to the reference speed."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "perfbench"))

from run import REF_NOMINAL_S, at_reference_speed, reference_s  # noqa: E402


def test_reference_speed_scaling(tmp_path):
    # a host running the loop at twice the nominal time halves every wall
    assert at_reference_speed(4.0, 2 * REF_NOMINAL_S, 2 * REF_NOMINAL_S) == pytest.approx(2.0)
    assert at_reference_speed(3.0, REF_NOMINAL_S / 2, REF_NOMINAL_S * 1.5) == pytest.approx(3.0)
    assert reference_s(tmp_path, {}, None) > 0


@pytest.mark.parametrize("trace, section", [(0, "end_to_end"), (1, "per_layer")])
def test_last_line_matches_benchmark_json(trace, section):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    argv = [sys.executable, "perfbench/run.py", "--workload", "demo", "--seed", "5", "--seconds", "0"]
    done = subprocess.run([*argv, "--trace", str(trace)], cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert done.returncode == 0, done.stdout + done.stderr
    last = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 1
    printed = [(name, value["unit"]) for name, value in last["metrics"].items()]
    assert printed == [(m["name"], m["unit"]) for m in spec[section]]
    assert all(isinstance(value["value"], (int, float)) for value in last["metrics"].values())


def test_refuses_a_directory_without_the_program(tmp_path):
    (tmp_path / "BENCHMARK.json").write_text((ROOT / "BENCHMARK.json").read_text())
    argv = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "demo", "--seed", "1", "--seconds", "1"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert "correct" not in done.stdout
