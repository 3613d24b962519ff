"""One cold run of a benchmark workload, in the process that started fresh for it.

Run from the repository root with the program's ``src`` on ``PYTHONPATH``;
``run.py`` starts it that way.  The last line of standard output is one JSON
object with the run's measurements and the digest summary of its canonical
JSONL stream.

    python3 perfbench/worker.py --workload NAME --seed N --scale full|smoke \\
        --spawned-at T [--pace] [--trace PATH] [--setup-only]

``--spawned-at`` is the parent's CLOCK_MONOTONIC reading just before it
started this process, so set-up time includes interpreter start and imports.
With ``--pace`` the times are adjusted to the reference host speed
(``pace.py``); the raw ones are reported next to them.
"""

from __future__ import annotations

import argparse
import io
import json
import resource
import time

import gate
import pace
import workloads
from maxnoether import reports


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--scale", default="full", choices=("full", "smoke"))
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--pace", action="store_true", help="adjust times to the reference speed")
    parser.add_argument("--trace", help="write the span log here and report per-layer metrics")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    marks: list[float] = []
    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer(marks)
        tracer.install()
    run = workloads.prepare(args.workload, args.scale, args.seed, marks)
    setup_raw_s = _now() - args.spawned_at
    # set-up is short next to a phase of the host's speed, so the speed
    # measured right after it stands for the speed during it
    setup_s = setup_raw_s * pace.speed_factor() if args.pace else setup_raw_s
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s, "setup_raw_s": setup_raw_s}))
        return 0

    if tracer is not None:
        tracer.in_loop = True
    pacer = pace.Pacer() if args.pace else None
    if pacer is not None:
        pacer.start()
    start = time.perf_counter()
    stream = run()
    buf = io.StringIO()
    reports.write_jsonl(stream, buf)
    end = time.perf_counter()
    if pacer is not None:
        pacer.stop()
    clock = (lambda t: t) if pacer is None else pacer.adjusted
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if len(marks) != len(stream):
        raise RuntimeError(f"{len(marks)} check marks for {len(stream)} reports")
    points = [clock(t) for t in [start] + marks]
    text = buf.getvalue()
    lines = text.splitlines()
    order = workloads.canonical_order(args.workload, stream)
    result = {
        "setup_s": setup_s,
        "setup_raw_s": setup_raw_s,
        "wall_s": clock(end) - clock(start),
        "wall_raw_s": end - start - (pacer.probe_seconds() if pacer else 0.0),
        "probes": len(pacer.probes) if pacer else 0,
        "latencies": [b - a for a, b in zip(points, points[1:])],
        "peak_rss_mb": peak_rss_mb,
        "bytes": len(text.encode("utf-8")),
        "stream": gate.summarize([lines[i] for i in order], [stream[i].passed for i in order]),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["layers"]["reports.bytes"] = result["bytes"]
        tracer.write(args.trace, args.workload)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
