"""Self-test of the benchmark at tiny sizes.

Run from the repository root:

    python3 -m pytest -q perfbench/test_bench.py

It checks that every metric named in BENCHMARK.json is printed with its
unit, that traced and untraced repetitions give identical outputs, that
the reference check catches a changed output, and that the benchmark
refuses to run without the package sources.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_metric_prints_with_its_unit(workload, trace):
    proc = _run("--workload", workload, "--seed", "3", "--seconds", "0.2",
                "--trace", str(trace), "--size", "tiny")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1

    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in declared:
        assert isinstance(result["metrics"][m["name"]]["value"], (int, float))
        assert any(
            line.split()[:1] == [m["name"]] and m["unit"] in line.split()
            for line in lines[:-1]
        ), f"{m['name']} not printed with {m['unit']}"
    assert any(line.startswith("error_rate") for line in lines)
    assert any(line.startswith("load average") for line in lines)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    import csflow.dynamics
    import csflow.geometry

    original = csflow.geometry.is_embedded
    workload = workloads.WORKLOADS[name](3, "tiny", tmp_path)
    workload.setup()
    plain = workload.rep()
    tracer = spans.Tracer()
    tracer.install(1)
    try:
        assert csflow.dynamics.is_embedded is not original
        traced = workload.rep()
    finally:
        tracer.uninstall()
    assert csflow.dynamics.is_embedded is original
    assert csflow.geometry.is_embedded is original

    assert [o.failure for o in plain + traced] == [None] * (len(plain) + len(traced))
    assert [o.digest for o in plain] == [o.digest for o in traced]
    layer = tracer.layer_metrics(1)
    assert layer["trace.spans"] > 0
    assert set(layer) == set(spans.LAYER_UNITS)


def test_reference_check_catches_a_changed_series(tmp_path, monkeypatch):
    workload = workloads.FlowN1024(3, "tiny", tmp_path / "work")
    workload.setup()
    assert workload.rep()[0].failure is None

    lines = (tmp_path / "work" / "run" / "series.csv").read_text().splitlines()
    cells = lines[-1].split(",")
    cells[3] = repr(float(cells[3]) * (1.0 + 1e-7))  # k_max of the last snapshot
    lines[-1] = ",".join(cells)
    tampered = tmp_path / "reference.csv"
    tampered.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(workloads.FlowN1024, "reference_path", property(lambda self: tampered))

    failure = workload.rep()[0].failure
    assert failure is not None and "differs from reference" in failure


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run("--workload", "flow-n1024", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
