#!/usr/bin/env python3
"""Benchmark entry point: cold, closed-loop runs of one workload.

    python3 perfbench/run.py --workload single-branch|multi-branch|value-level \\
        --seed N --seconds S --trace 0|1 [--scale full|smoke]

Run it from the repository root; it verifies the program in ``src/``.  Each
timed run is a fresh process (``worker.py``) that sets up, verifies the
whole corpus one check after the next and encodes the canonical JSONL.
With ``--trace 0`` it makes set-up probes, then timed runs until ``--seconds``
have passed, and reports the end-to-end metrics as medians over them.  With
``--trace 1`` it makes one untraced and one traced run and reports the
per-layer metrics of the traced one.  Every run's JSONL goes through the
correctness gate.  The second-to-last line of output is the provenance, the
last line the result.  Exit status: 0 when every check is right, 1 when a
check is wrong or a run fails, 2 on a usage error or a missing program.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from hashlib import sha256
from pathlib import Path

import gate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
BUDGET_S = 170.0  # the whole invocation ends well inside 180 s
SETUP_PROBES = 5
# Runs per invocation, at least: multi-branch has no recorded stream, so its
# runs must agree byte for byte, and on both a check's latency is a median
# over runs (see latency_stats)
MIN_RUNS = {"multi-branch": 2, "value-level": 2}


def tail_point(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest 0.1-step percentile with at least ten samples beyond it.

    Returns the percentile, the latency there and the number of samples
    beyond it.  Below eleven samples no percentile qualifies, and the
    smallest sample stands in at percentile 0.
    """
    n = len(latencies)
    pct = max(0.0, math.floor(1000 * (1 - 10 / n)) / 10)
    rank = max(1, math.ceil(pct / 100 * n))
    return pct, sorted(latencies)[rank - 1], n - rank


def latency_stats(runs: list[dict]) -> tuple[float, float, float, int]:
    """Median, tail percentile, tail latency and samples beyond it, over the checks.

    The runs of one invocation make the same checks in the same order, and a
    check's latency is its median over them.  On a shared 2-vCPU guest one
    check's adjusted time moved by ~11% from run to run, so the tail of a
    single run picks out the checks that happened to run slow rather than
    the slow checks.
    """
    per_check = [statistics.median(times) for times in zip(*(run["latencies"] for run in runs))]
    if any(len(run["latencies"]) != len(per_check) for run in runs):
        raise RunFailed("the runs made different numbers of checks")
    pct, tail, beyond = tail_point(per_check)
    return statistics.median(per_check), pct, tail, beyond


class RunFailed(Exception):
    pass


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def cold_run(
    args, deadline: float, trace: Path | None = None, setup_only: bool = False, paced: bool = False
) -> dict:
    """Start one worker process, wait for it to end and return its measurements."""
    spawned_at = _now()
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale,
        "--spawned-at", repr(spawned_at),
    ]
    if trace is not None:
        cmd += ["--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if paced:
        cmd.append("--pace")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = deadline - spawned_at
    if timeout <= 0:
        raise RunFailed("time budget spent before the run could start")
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RunFailed(f"worker exited with {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def errors_per_run(workload: str, scale: str, runs: list[dict]) -> list[int]:
    """Wrong checks per run: against the recorded stream, or else against run 0.

    Every check of the seed-dependent multi-branch corpus is expected to pass.
    """
    if workload in gate.RECORDED:
        expected = gate.load_expected(workload, scale)
    else:
        expected = dict(runs[0]["stream"], failing=[])
    return [gate.count_errors(expected, run["stream"]) for run in runs]


def timed(args, deadline: float) -> tuple[dict, list[dict], list[int]]:
    setups = [cold_run(args, deadline, setup_only=True, paced=True) for _ in range(SETUP_PROBES)]
    runs: list[dict] = []
    min_runs = MIN_RUNS.get(args.workload, 1)
    started = _now()
    while len(runs) < min_runs or _now() - started < args.seconds:
        before = _now()
        runs.append(cold_run(args, deadline, paced=True))
        # rather stop early than start a run that could overrun the budget
        if len(runs) >= min_runs and _now() + 1.5 * (_now() - before) > deadline:
            break
    errors = errors_per_run(args.workload, args.scale, runs)
    attempted = sum(run["stream"]["checks"] for run in runs)
    metrics = {key: statistics.median(run[key] for run in runs) for key in ("wall_s", "peak_rss_mb")}
    p50, _, tail, _ = latency_stats(runs)
    metrics["check_p50_ms"] = 1000 * p50
    metrics["check_tail_ms"] = 1000 * tail
    metrics["setup_s"] = statistics.median(run["setup_s"] for run in setups + runs)
    metrics["correct_ratio"] = 1 - sum(errors) / attempted
    return metrics, runs, errors


def traced(args, deadline: float) -> tuple[dict, list[dict], list[int]]:
    OUT_DIR.mkdir(exist_ok=True)
    plain = cold_run(args, deadline)
    path = OUT_DIR / f"trace-{args.workload}-{args.scale}-seed{args.seed}.jsonl.gz"
    run = cold_run(args, deadline, trace=path)
    # both runs meet the recorded stream, or the traced one meets the plain
    # one, so tracing changed no output byte
    errors = errors_per_run(args.workload, args.scale, [plain, run])
    metrics = dict(run["layers"])
    metrics["trace.overhead_s"] = run["wall_s"] - plain["wall_s"]
    return metrics, [plain, run], errors


def _cpu_model() -> str | None:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fp:
            for line in fp:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def _git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def _source_sha256() -> str:
    digest = sha256()
    for path in sorted((ROOT / "src" / "maxnoether").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(args, runs: list[dict]) -> dict:
    _, pct, _, beyond = latency_stats(runs)
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "git_sha": _git_sha(),
        "source_sha256": _source_sha256(),
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "runs": len(runs),
        "run_wall_s": [run["wall_s"] for run in runs],
        "run_wall_raw_s": [run["wall_raw_s"] for run in runs],
        "run_setup_raw_s": [run["setup_raw_s"] for run in runs],
        "run_probes": [run["probes"] for run in runs],
        "checks_per_run": runs[0]["stream"]["checks"],
        "check_tail_percentile": pct,
        "check_tail_samples": beyond,
        "jsonl_sha256": runs[0]["stream"]["sha256"],
        "jsonl_bytes": runs[0]["bytes"],
    }


def main(argv: list[str] | None = None) -> int:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fp:
        spec = json.load(fp)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "smoke"), default="full")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "maxnoether" / "__init__.py").is_file():
        print(f"run.py: no program to benchmark: {ROOT / 'src' / 'maxnoether'} is missing",
              file=sys.stderr)
        return 2

    deadline = _now() + BUDGET_S
    try:
        metrics, runs, errors = (traced if args.trace else timed)(args, deadline)
    except (RunFailed, subprocess.TimeoutExpired) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {
        "correct": not any(errors),
        "attempted": sum(run["stream"]["checks"] for run in runs),
        "failed": sum(errors),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps({"provenance": provenance(args, runs)}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
