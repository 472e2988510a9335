"""The repo benchmark: ``python3 bench/run.py --workload W --seed N
--seconds S --trace 0|1`` runs one workload in this process and prints
every metric by name with its unit, then one JSON result line.  With no
``--workload`` (or several) each workload runs in a fresh subprocess of
this same command.  See ``bench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# run as a script: the bench package and the program it measures
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from bench.clock import Clock  # noqa: E402
from bench.metrics import (  # noqa: E402
    END_TO_END, PER_LAYER, WORKLOADS, p50, p90, quantile,
)
from bench.spans import Tracer  # noqa: E402

#: ops every run measures at least, whatever --seconds says, so p90 has
#: ten samples beyond it; exact counts are taken over this fixed prefix
MIN_OPS = 100
TRACE_OPS = 40  # the traced run spends half its time in layer probes
QUICK_OPS = 10
SETUP_REPEATS = 5


def strip_repro_env() -> list[str]:
    """Remove every ``REPRO_*`` variable: defaults are what users get."""
    names = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in names:
        del os.environ[name]
    return names


def provenance(seed: int, stripped: list[str]) -> dict:
    sha = "unknown"
    if (ROOT / ".git").exists():  # the driver's checkout is not a repository
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=5,
            ).stdout.strip() or sha
        except (OSError, subprocess.SubprocessError):
            pass
    model = "unknown"
    try:
        with open("/proc/cpuinfo") as cpuinfo:
            for line in cpuinfo:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    import numpy

    return {
        "git_sha": sha,
        "seed": seed,
        "host": {
            "nproc": os.cpu_count(),
            "cpu": model,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
        },
        "stripped_env": stripped,
    }


# -- the measured loop -------------------------------------------------------


class Sample(NamedTuple):
    op: int  # index in the op stream
    seconds: float  # wall time of the call
    slowdown: float  # host speed around the call (bench/clock.py)
    rows: int
    ok: bool
    traced: bool

    @property
    def at_reference(self) -> float:
        return self.seconds / self.slowdown


def measure(workload, min_ops, seconds, tracer) -> list[Sample]:
    """The closed loop: warm-up ops untimed, then measured ops until both
    ``min_ops`` and ``seconds`` are reached, in whole epochs (see
    ``Workload.epoch_ops``).  In a traced run, ops alternate in pairs
    between the plain call and the spanned one, so both see the same
    evolving state."""
    for i in range(workload.warmup_ops):
        op = workload.next_op(i)
        workload.note_op(op)
        workload.run_op(op)
        workload.after_op(op, prefix=False)
    clock = Clock(workload.calibrated)
    samples: list[Sample] = []
    epoch = workload.epoch_ops
    started = time.perf_counter()
    n = 0
    while (
        n < min_ops
        or time.perf_counter() - started < seconds
        or (epoch and n % epoch)
    ):
        if epoch and n and n % epoch == 0:
            workload.new_epoch()
        i = workload.warmup_ops + n
        op = workload.next_op(i)
        prefix = n < min_ops
        if prefix:
            workload.note_op(op)
        traced = tracer is not None and (n // 2) % 2 == 1
        try:
            if traced:
                wall, slow, rows = tracer.timed_op(
                    clock, i, lambda: workload.run_op_traced(op, tracer)
                )
            else:
                wall, slow, rows = clock.timed(lambda: workload.run_op(op))
        except Exception:  # noqa: BLE001 - a failed op is a counted outcome
            traceback.print_exc(file=sys.stderr)
            samples.append(Sample(i, 0.0, 1.0, 0, False, traced))
        else:
            samples.append(Sample(i, wall, slow, rows, True, traced))
            workload.after_op(op, prefix)
        n += 1
        if n == min_ops:
            # memory after a fixed amount of work, not after however many
            # ops the host's speed let this run fit into --seconds
            workload.peak_rss = workload.peak_rss_mib()
    return samples


# -- one workload, in this process -------------------------------------------


def make_workload(name, seed, quick, out_dir):
    from bench import workloads
    from bench.serve_workload import ServeDurable

    classes = {
        cls.name: cls
        for cls in (
            workloads.OneshotCold, workloads.OneshotWarm,
            workloads.DeltaSmall, workloads.DeltaLarge,
            workloads.DistOneshot, workloads.DistSession,
        )
    }
    if name == ServeDurable.name:
        return ServeDurable(seed, quick, out_dir)
    return classes[name](seed, quick)


def run_setups(workload, tracer, repeats) -> tuple[list[float], dict]:
    """Set the program up ``repeats`` times, each from nothing -> the
    set-up times at reference speed and the median time of each stage."""
    setups = []
    clock = Clock(workload.calibrated)
    for _ in range(repeats):
        workload.release()
        gc.collect()
        wall, slow, _ = tracer.timed_op(
            clock, tracer.new_op(), lambda: workload.setup(tracer)
        )
        setups.append(wall / slow)
    stages = {
        name: statistics.median(tracer.durations(name))
        for name in dict.fromkeys(
            span[0] for span in tracer.spans if span[3] == -1
        )
    }
    return setups, stages


def end_to_end_values(workload, setups, done) -> dict:
    at_reference = sorted(s.at_reference for s in done)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "op_p50_ms": (p50(at_reference) * 1e3, len(done)),
        "op_p90_ms": (p90(at_reference) * 1e3, len(done)),
        "rows_per_s": (
            sum(s.rows for s in done) / sum(at_reference), len(done),
        ),
        "peak_rss_mb": (workload.peak_rss, 1),
    }


def per_layer_values(workload, tracer, samples, done, quick) -> dict:
    from bench import probes

    values = probes.run(workload, tracer, samples, quick)
    plain = sorted(s.at_reference for s in done if not s.traced)
    traced = [s.at_reference for s in done if s.traced]
    values["bench.trace_overhead_ratio"] = (
        p50(sorted(traced)) / p50(plain), len(traced),
    )
    values["bench.client.op_p99_ms"] = (
        quantile(plain, 0.99, 0.005) * 1e3 if len(plain) >= 1000 else 0.0,
        len(plain),
    )
    values["bench.clock.slowdown_ratio"] = (
        statistics.median(s.slowdown for s in done), len(done),
    )
    values["bench.ops"] = (len(samples), len(samples))
    return values


def run_workload(name, seed, seconds, trace, quick, out_dir, stripped,
                 corrupt=False, pin=False) -> dict:
    """Run one workload; returns the full record (metrics + provenance)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    run_started = time.perf_counter()
    workload = make_workload(name, seed, quick, str(out_dir))
    workload.generate()
    datagen_s = time.perf_counter() - run_started

    tracer = Tracer()
    try:
        setups, stages = run_setups(
            workload, tracer, 1 if quick or trace else SETUP_REPEATS
        )
        min_ops = QUICK_OPS if quick else TRACE_OPS if trace else MIN_OPS
        workload.prefix_ops = min_ops
        if quick:
            seconds = 0.0
        samples = measure(
            workload, min_ops, seconds / 2 if trace else seconds,
            tracer if trace else None,
        )
        problems = workload.check(corrupt)
        done = [s for s in samples if s.ok]
        attempted = len(samples)
        failed = attempted - len(done)
        if trace:
            values = per_layer_values(workload, tracer, samples, done, quick)
            exact = {metric: value for metric, (value, _n) in values.items()}
            declared = [(m.name, m.unit) for m in PER_LAYER]
        else:
            values = end_to_end_values(workload, setups, done)
            exact = workload.counts
            declared = [(n, u) for n, u, _b, _bound, _d in END_TO_END]
        if pin:
            workload.pin(trace, exact)
        problems += workload.pinned_mismatches(trace, exact)
        if trace:
            values["fail_ratio"] = (
                1.0 if problems else failed / attempted, attempted,
            )
            tracer.dump(
                out_dir / f"trace-{name}.json",
                {"workload": name, "seed": seed, "counts": workload.counts},
            )
            values["bench.run_s"] = (time.perf_counter() - run_started, 1)
    finally:
        workload.release()

    status = "ok" if not problems else "incorrect"
    walls = sorted(s.seconds for s in done if not s.traced)
    return {
        "workload": name,
        "trace": int(trace),
        "quick": quick,
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": attempted if problems else failed,
        "metrics": {
            metric: {
                "value": value, "unit": unit, "n": n,
                "status": status if metric in values else "off-path",
            }
            for metric, unit in declared
            for value, n in [values.get(metric, (0.0, 0))]
        },
        "notes": workload.notes,
        "size": workload.size(),
        "op_stream_sha256": workload.stream_digest(),
        "counts": workload.counts,
        "exact_prefix_ops": min_ops,
        # as the wall clock saw it, before bench/clock.py's scaling
        "wall": {
            "op_p50_ms": p50(walls) * 1e3,
            "op_p90_ms": p90(walls) * 1e3,
            "slowdown_p50": statistics.median(s.slowdown for s in done),
            "datagen_s": datagen_s,
            "run_s": time.perf_counter() - run_started,
        },
        "setup_stages_s": stages,
        "provenance": provenance(seed, stripped),
    }


def print_record(record: dict) -> None:
    size = " ".join(f"{k}={v}" for k, v in record["size"].items())
    prov = record["provenance"]
    print(
        f"# {record['workload']} seed={prov['seed']} trace={record['trace']} "
        f"{size} ops={record['attempted']} failed={record['failed']} "
        f"fail_ratio={record['failed'] / record['attempted']:.4f} "
        f"sha={prov['git_sha'][:12]} nproc={prov['host']['nproc']} "
        f"python={prov['host']['python']} numpy={prov['host']['numpy']}"
    )
    for name, m in record["metrics"].items():
        print(
            f"{name:52s} {m['value']:>16.6g} {m['unit']:8s} "
            f"n={m['n']:<6d} {m['status']}"
        )
    for note in record["notes"]:
        print(f"note: {note}")
    for problem in record["problems"]:
        print(f"INCORRECT: {problem}")


def result_line(record: dict) -> str:
    return json.dumps(
        {
            "correct": record["correct"],
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": {
                name: {"value": m["value"], "unit": m["unit"]}
                for name, m in record["metrics"].items()
            },
        }
    )


def append_history(out_dir: Path, records: list[dict]) -> None:
    line = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "records": records,
    }
    with open(out_dir / "history.jsonl", "a") as history:
        history.write(json.dumps(line) + "\n")


# -- the command --------------------------------------------------------------


def parse(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=8)
    parser.add_argument(
        "--seconds", type=float,
        default=json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"],
    )
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1))
    parser.add_argument("--quick", action="store_true",
                        help="2K rows, 10 ops: a smoke run, no timing value")
    parser.add_argument("--out", type=Path, default=HERE / "OUT")
    parser.add_argument("--corrupt-oracle", action="store_true",
                        help="self-test: the oracle's report loses one "
                        "violation, so the run must exit non-zero")
    parser.add_argument("--pin", action="store_true",
                        help="record this run's exact counts in "
                        "bench/pinned.json, in place of checking them")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    # a terminated run still unwinds, so the serve child is reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    stripped = strip_repro_env()
    args = parse(argv)
    names = args.workload or list(WORKLOADS)
    if len(names) == 1:
        record = run_workload(
            names[0], args.seed, args.seconds, args.trace, args.quick,
            args.out, stripped, args.corrupt_oracle, args.pin,
        )
        print_record(record)
        (args.out / f"{names[0]}.trace{args.trace}.json").write_text(
            json.dumps(record, indent=1) + "\n"
        )
        append_history(args.out, [record])
        print(result_line(record))
        return 0 if record["correct"] else 1

    # several workloads: each in its own fresh process of this command
    code = 0
    for name in names:
        command = [
            sys.executable, str(HERE / "run.py"), "--workload", name,
            "--seed", str(args.seed), "--seconds", str(args.seconds),
            "--trace", str(args.trace), "--out", str(args.out),
        ] + ["--quick"] * args.quick + ["--pin"] * args.pin
        done = subprocess.run(command, timeout=600)
        code = code or done.returncode
    return code


if __name__ == "__main__":
    sys.exit(main())
