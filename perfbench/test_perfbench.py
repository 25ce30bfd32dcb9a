"""The benchmark's own tests: run with ``python -m pytest perfbench`` from the checkout root."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def bench(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def test_smoke_runs_every_workload_with_the_declared_metrics():
    proc = bench("--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for w in spec["workloads"]:
        for trace in (0, 1):
            assert f"smoke {w['name']} trace={trace}: ok" in proc.stdout


def test_fails_without_maup_sources():
    bare = ROOT / ".perfbench" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench("--workload", "sweep-toy", "--seed", "0", "--seconds", "1", "--trace", "0", cwd=bare)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.mark.parametrize(
    "n, value, pct",
    [(1, 0.0, 100.0), (10, 9.0, 100.0), (11, 0.0, 100.0 / 11), (100, 89.0, 90.0)],
)
def test_tail_leaves_ten_samples_beyond(n, value, pct):
    assert run.tail([float(x) for x in range(n)]) == (value, pytest.approx(pct))


def test_a_missing_stage_is_reported_not_raised(monkeypatch):
    monkeypatch.setitem(tracing.STAGES, "gone", ("simmaps", "no_such_stage"))
    found, missing = tracing.resolve_stages()
    assert missing == ["maup.simmaps.no_such_stage"]
    assert "stack" in found
