"""Tests of the benchmark itself, at smoke scale (genus <= 4, n <= 3).

    python3 -m pytest perfbench/test_perfbench.py -q
"""

from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import gate  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from run import tail_point  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


def smoke(workload: str, trace: int) -> tuple[dict, dict]:
    proc = bench("--workload", workload, "--seed", "3", "--seconds", "1",
                 "--trace", str(trace), "--scale", "smoke")
    assert proc.returncode == 0, proc.stderr
    *_, prov_line, result_line = proc.stdout.splitlines()
    return json.loads(prov_line)["provenance"], json.loads(result_line)


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    provenance, result = smoke(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in wanted
    }
    for key in ("python", "nproc", "cpu_model", "seed", "checks_per_run",
                "check_tail_percentile", "check_tail_samples"):
        assert key in provenance


def _worker_stream(workload: str, trace_path: Path | None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload, "--seed", "5",
           "--scale", "smoke", "--spawned-at", "0"]
    if trace_path is not None:
        cmd += ["--trace", str(trace_path)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                          env={"PYTHONPATH": str(ROOT / "src"), "PATH": ""})
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_stream_equals_untraced(workload, tmp_path):
    plain = _worker_stream(workload, None)
    traced = _worker_stream(workload, tmp_path / "spans.jsonl.gz")
    assert traced["stream"]["sha256"] == plain["stream"]["sha256"]
    assert traced["layers"]["trace.spans"] > 0
    assert (tmp_path / "spans.jsonl.gz").stat().st_size > 0


def _program_stream(workload: str) -> list:
    from maxnoether import suites

    size = workloads.SCALES[workload]["smoke"]
    plan = workloads.suite_plan(workload, size)
    return [r for name, params in plan for r in suites.run_suite(name, params)]


def _summary(stream: list) -> dict:
    from maxnoether import reports

    buf = io.StringIO()
    reports.write_jsonl(stream, buf)
    return gate.summarize(buf.getvalue().splitlines(), [r.passed for r in stream])


@pytest.mark.parametrize("workload", gate.RECORDED)
def test_gate_counts_one_flipped_verdict(workload):
    expected = gate.load_expected(workload, "smoke")
    stream = _program_stream(workload)
    assert gate.count_errors(expected, _summary(stream)) == 0
    stream[len(stream) // 2].passed = not stream[len(stream) // 2].passed
    assert gate.count_errors(expected, _summary(stream)) == 1


def test_tail_point_leaves_ten_samples_beyond():
    assert tail_point([float(i) for i in range(441)]) == (97.7, 430.0, 10)
    assert tail_point([float(i) for i in range(95)]) == (89.4, 84.0, 10)
    assert tail_point([1.0] * 5)[0] == 0.0


def test_pacer_takes_probes_out_and_counts_the_rest_at_the_probed_speed():
    pacer = pace.Pacer()
    pacer.start()
    start = time.perf_counter()
    while time.perf_counter() - start < 12 * pace.INTERVAL_S:
        pace.kernel()
    end = time.perf_counter()
    pacer.stop()
    assert len(pacer.probes) >= 5
    program_s = end - start - pacer.probe_seconds()
    durations = [b - a for a, b in pacer.probes]
    adjusted = pacer.adjusted(end) - pacer.adjusted(start)
    assert pace.REF_PROBE_S / max(durations) * program_s * 0.99 <= adjusted
    assert adjusted <= pace.REF_PROBE_S / min(durations) * program_s * 1.01
    # time inside a probe does not count
    first_start, first_end = pacer.probes[1]
    assert pacer.adjusted((first_start + first_end) / 2) == pytest.approx(pacer.adjusted(first_end))


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
