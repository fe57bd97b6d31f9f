"""Smoke test of the benchmark: every workload once, on tiny inputs.

    python -m pytest perfbench/test_smoke.py

Checks the result schema against BENCHMARK.json, not any timing.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "1", "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_result_schema(workload, trace):
    proc = _run(ROOT, workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stderr
    assert isinstance(result["attempted"], int) and result["attempted"] >= 1
    spec = SPEC["per_layer" if trace else "end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in spec
    }
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_a_tree_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(tmp_path, "kpr-converge", 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_renamed_entry_point_fails_loudly(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    import mgstrat.cli
    from spans import SpanRecorder, check_coverage, patched

    monkeypatch.delattr(mgstrat.cli, "run")
    with pytest.raises(AttributeError):
        with patched(SpanRecorder()):
            pass
    assert mgstrat.cli.main.__module__ == "mgstrat.cli"  # restored, not left wrapped
    with pytest.raises(RuntimeError, match="run"):
        check_coverage(SpanRecorder(), ("run",))
