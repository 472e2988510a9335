"""Run-to-run spread of the end-to-end metrics, the way the driver takes
it: ``--runs`` untraced runs per workload, each with another seed, and per
metric the distance between the first and third quartile of the values
(``statistics.quantiles(values, n=4)``) as a share of their median.

``python3 bench/spread.py [--sets 2] [--runs 10] [--trace] [--json FILE]``
prints one table per set; ``--json`` also writes medians, quartiles and
every value (and, with ``--trace``, one traced run's per-layer numbers and
self-time shares) — the shape of ``bench/baseline.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

from bench.metrics import END_TO_END, WORKLOADS  # noqa: E402

WALL = "wall.op_p50_ms"  # shown beside the metrics; it has no bound


def run_once(workload, seed, seconds, trace, out) -> dict:
    done = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace), "--out", str(out),
        ],
        capture_output=True, text=True, timeout=600,
    )
    if done.returncode:
        raise RuntimeError(f"{workload} seed {seed}: {done.stderr[-2000:]}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    if not result["correct"] or result["failed"]:
        raise RuntimeError(f"{workload} seed {seed}: {result}")
    # what the wall clock saw, before bench/clock.py's scaling
    record = json.loads((out / f"{workload}.trace{trace}.json").read_text())
    result[WALL] = record["wall"]["op_p50_ms"]
    return result


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median, "q1": q1, "q3": q3,
        "spread": (q3 - q1) / median, "values": values,
    }


def print_table(summary: dict, bounds: dict) -> None:
    print(f"{'workload':14s} {'metric':14s} {'median':>12s} "
          f"{'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    for workload, per in summary.items():
        for metric, s in per.items():
            bound = bounds.get(metric)
            flag = "" if bound is None or s["spread"] <= bound / 3 else (
                " >bound/3" if s["spread"] <= bound else " >BOUND"
            )
            print(f"{workload:14s} {metric:14s} {s['median']:12.4f} "
                  f"{s['q1']:12.4f} {s['q3']:12.4f} {s['spread']:8.2%} "
                  f"{'' if bound is None else format(bound, '6.0%')}{flag}")
    sys.stdout.flush()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=100)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--json", type=Path)
    parser.add_argument("--out", type=Path, default=HERE / "OUT")
    args = parser.parse_args()
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds or json.loads(
        (HERE.parent / "BENCHMARK.json").read_text()
    )["run_seconds"]
    bounds = {name: bound for name, _u, _b, bound, _d in END_TO_END}

    sets = []
    for index in range(args.sets):
        values = {w: {m: [] for m in [*bounds, WALL]} for w in names}
        for run in range(args.runs):
            # alternate the workload order between runs
            for workload in names if run % 2 == 0 else reversed(names):
                seed = args.seed + index * args.runs + run
                result = run_once(workload, seed, seconds, 0, args.out)
                for metric in bounds:
                    values[workload][metric].append(
                        result["metrics"][metric]["value"]
                    )
                values[workload][WALL].append(result[WALL])
        summary = {
            w: {m: summarise(v) for m, v in per.items()}
            for w, per in values.items()
        }
        sets.append(summary)
        print(f"set {index + 1}: {args.runs} runs per workload, "
              f"seeds {args.seed + index * args.runs}..")
        print_table(summary, bounds)

    traced = {}
    if args.trace:
        for workload in names:
            result = run_once(workload, args.seed, seconds, 1, args.out)
            trace = json.loads(
                (args.out / f"trace-{workload}.json").read_text()
            )
            total = sum(trace["op_self_seconds"].values())
            traced[workload] = {
                "per_layer": {
                    name: m["value"] for name, m in result["metrics"].items()
                },
                "self_time_share": {
                    name: seconds_ / total
                    for name, seconds_ in trace["op_self_seconds"].items()
                },
            }
    if args.json:
        args.json.write_text(
            json.dumps({"sets": sets, "traced": traced}, indent=1) + "\n"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
