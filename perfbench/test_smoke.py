"""Smoke test for the benchmark itself: tiny inputs, tracing off and on.

Run from the repository root with ``python -m pytest perfbench/test_smoke.py``.
It checks that every metric named in BENCHMARK.json is emitted with its
unit and that no answer is wrong; it asserts no timing.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
sys.path.insert(0, str(HERE))

import layers  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_is_emitted_and_every_answer_right(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == \
        {m["name"]: m["unit"] for m in wanted}
    for name in ("fail_ratio", "setup_s") if not trace else ("fail_ratio",):
        assert name in proc.stdout


def test_spec_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end",
                         "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in SPEC["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in SPEC["per_layer"]] == layers.PER_LAYER


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(workload):
    gen = workloads.WORKLOADS[workload]
    first, again, other = gen(5, True), gen(5, True), gen(6, True)
    assert [(i.argv, i.files, i.expect) for i in first] == \
        [(i.argv, i.files, i.expect) for i in again]
    assert [(i.argv, i.files) for i in first] != [(i.argv, i.files) for i in other]
    assert all(i.reason for i in first)


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_out", "__pycache__"))
    proc = _run(tmp_path, "knots", 0)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 55)])[1:] == (75, 13)
    assert run.tail([float(i) for i in range(1, 121)])[1:] == (90, 12)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100, 0)
