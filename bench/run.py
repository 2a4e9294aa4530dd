#!/usr/bin/env python3
"""gateprog benchmark: run one workload (or all of them) and check every output.

    python3 bench/run.py --workload protocol-grid --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 0 --seconds 30 --trace 0

Run it from the root of a source checkout; it imports gateprog from ``src/``.
One client sends one operation at a time and waits for it (a closed loop).
Every operation runs under the per-operation time limit of
``workloads.TIME_LIMIT_S``; a timeout, a non-zero exit code, an exception or
an output that does not match its reference counts as a failed operation.

With ``--trace 0`` the run makes ``workloads.pass_count`` passes over the
operation list: as many as fit in ``--seconds`` at the seed commit's speed,
fixed by the arguments so that ``attempted`` and ``failed`` do not depend on
the machine's speed.  The end-to-end metrics are reported: ``wall_s`` and
``cpu_s`` are sums over operations of each operation's median across passes,
``setup_s`` is the median over at least five fresh interpreters, started
before each pass and after the last one, of the time until gateprog is
imported and the operation list is built.

With ``--trace 1`` one untraced pass is followed by one traced pass; the
per-layer metrics come from the traced pass, and ``trace.overhead_s`` is the
difference of the two passes' wall times.

A results file with the machine facts goes to ``bench/results/``.  The last
line of stdout is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH = Path(__file__).resolve().parent
RESULTS = BENCH / "results"
SETUP_PROBES = 5


def _import_gateprog():
    """Import gateprog from this checkout's sources, or exit 1 if there are none."""
    init = SRC / "gateprog" / "__init__.py"
    if not init.is_file():
        sys.exit(f"error: {init} not found; run from the root of a gateprog checkout")
    sys.path.insert(0, str(SRC))
    import gateprog

    if Path(gateprog.__file__).resolve() != init.resolve():
        sys.exit(f"error: gateprog was imported from {gateprog.__file__}, not {init}")


_import_gateprog()

import numpy  # noqa: E402

import check  # noqa: E402
import tracing  # noqa: E402
from workloads import (  # noqa: E402
    CHOI_SAMPLES, EXPECTED_FAILURES, SEED_NOTES, TIME_LIMIT_S, WORKLOADS, execute,
    pass_count,
)


class OperationTimeout(BaseException):
    """Raised by the interval timer; a BaseException so no handler in gateprog swallows it."""


def _on_alarm(signum, frame):
    raise OperationTimeout


def timed_execute(op, seed: int, workdir: str):
    """Run one operation under the time limit.

    Returns the outcome (None if it did not finish), the failure reasons so
    far, and the wall and CPU seconds it took.
    """
    signal.signal(signal.SIGALRM, _on_alarm)
    outcome, reasons = None, []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    signal.setitimer(signal.ITIMER_REAL, TIME_LIMIT_S)
    try:
        outcome = execute(op, seed, workdir)
    except OperationTimeout:
        reasons = [f"timeout: stopped at the {TIME_LIMIT_S:g} s limit"]
    except Exception as exc:  # any exception is a recorded failure, not a crash
        reasons = [f"exception: {type(exc).__name__}: {exc}"]
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return outcome, reasons, time.perf_counter() - wall0, time.process_time() - cpu0


def run_operation(op, seed: int, workdir: str, references: dict, tracer=None) -> dict:
    """Run one operation under the time limit and check its output."""
    outcome, reasons, wall, cpu = timed_execute(op, seed, workdir)
    if outcome is not None:
        reasons = check.check(op, outcome, references, seed, CHOI_SAMPLES)
        if tracer is not None and op.kind == "verify":
            # verify emits its report on stdout rather than through write_text_atomic
            tracer.count("reporting.bytes_written", len(outcome.output.encode()))
    kinds = {reason.split(":")[0] for reason in reasons}
    return {
        "name": op.name,
        "wall_s": wall,
        "cpu_s": cpu,
        "reasons": reasons,
        "expected": kinds <= set(EXPECTED_FAILURES.get(op.name, ())),
        "digest": hashlib.sha256(
            json.dumps(None if outcome is None else outcome.output, sort_keys=True).encode()
        ).hexdigest(),
    }


def run_pass(ops, seed: int, workdir: str, references: dict, tracer=None) -> list[dict]:
    return [run_operation(op, seed, workdir, references, tracer) for op in ops]


def measure_setup(workload: str) -> float:
    """Seconds from spawning a fresh interpreter until it has built the operation list."""
    start = time.monotonic()
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.split()[-1]) - start


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _blas_threads_observed() -> int | None:
    """Threads of this process, besides the main one, after a BLAS call.

    The benchmark starts no threads itself, so these are the BLAS pool's.
    """
    a = numpy.ones((256, 256))
    (a @ a).sum()
    try:
        return len(os.listdir("/proc/self/task")) - 1
    except OSError:
        return None


def _blas_library() -> str:
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        return f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError):
        return "unknown"


def git_commit() -> str | None:
    """The checkout's commit read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "gateprog").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_library(),
        "blas_threads_observed": _blas_threads_observed(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "time_limit_s": TIME_LIMIT_S,
    }


def _declared(key: str) -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[key]}


def measure(workload: str, seed: int, seconds: int, trace: bool, references: dict) -> dict:
    """Run the workload's passes and return the results record."""
    ops = WORKLOADS[workload]
    workdir = RESULTS / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    result: dict = {"problems": []}
    try:
        if not trace:
            # set-up probes between passes sample the machine over the whole run
            setup, passes = [], []
            for _ in range(pass_count(workload, seconds)):
                setup.append(measure_setup(workload))
                passes.append(run_pass(ops, seed, str(workdir), references))
            setup += [measure_setup(workload) for _ in range(SETUP_PROBES - len(setup))]
            values = {
                "setup_s": statistics.median(setup),
                "wall_s": sum(statistics.median(p[i]["wall_s"] for p in passes)
                              for i in range(len(ops))),
                "cpu_s": sum(statistics.median(p[i]["cpu_s"] for p in passes)
                             for i in range(len(ops))),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            result["setup_samples_s"] = setup
            units = _declared("end_to_end")
        else:
            untraced = run_pass(ops, seed, str(workdir), references)
            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced = run_pass(ops, seed, str(workdir), references, tracer)
            finally:
                tracer.uninstall()
            untraced_wall = sum(r["wall_s"] for r in untraced)
            traced_wall = sum(r["wall_s"] for r in traced)
            values = tracer.metrics(overhead_s=traced_wall - untraced_wall)
            passes = [untraced, traced]
            for a, b in zip(untraced, traced):
                if a["digest"] != b["digest"] or a["reasons"] != b["reasons"]:
                    result["problems"].append(f"{a['name']}: traced output differs from untraced")
            result["problems"] += [f"span {s} recorded no call"
                                   for s in tracer.missing_spans(workload)]
            result["tracing"] = {
                "untraced_wall_s": untraced_wall,
                "traced_wall_s": traced_wall,
                "overhead_s": traced_wall - untraced_wall,
                "spans": {s: {"calls": tracer.calls[s], "total_s": tracer.total[s],
                              "self_s": tracer.self_time[s]}
                          for s in sorted(tracer.calls) if tracer.calls[s]},
            }
            units = _declared("per_layer")
    finally:
        for path in workdir.iterdir():
            path.unlink()
        workdir.rmdir()

    if set(values) != set(units):
        raise RuntimeError(f"metrics {sorted(set(values) ^ set(units))} are not declared")
    operations = []
    for i, op in enumerate(ops):
        runs = [p[i] for p in passes]
        reasons = sorted({r for run in runs for r in run["reasons"]})
        expected = all(run["expected"] for run in runs)
        operations.append({
            "name": op.name,
            "wall_s": [run["wall_s"] for run in runs],
            "cpu_s": [run["cpu_s"] for run in runs],
            "failed": bool(reasons),
            "reasons": reasons,
            "expected_failure": bool(reasons) and expected,
        })
        if not expected:
            result["problems"] += [f"{op.name}: {r}" for r in reasons]
    attempted = len(ops) * len(passes)
    failed = sum(bool(run["reasons"]) for p in passes for run in p)
    result.update({
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "operations": operations,
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
    })
    result["correct"] = not result["problems"]
    return result


def _print_report(workload: str, record: dict) -> None:
    print(f"workload {workload}: seed {record['seed']}, trace {record['trace']}, "
          f"{record['passes']} pass(es), time limit {TIME_LIMIT_S:g} s per operation")
    for op in record["operations"]:
        status = "ok" if not op["failed"] else (
            "FAILED (expected)" if op["expected_failure"] else "FAILED")
        walls = ", ".join(f"{w:.3f}" for w in op["wall_s"])
        print(f"  {status:<17} {op['name']:<22} {walls} s  {'; '.join(op['reasons'])}")
    for name, metric in record["metrics"].items():
        print(f"  {name} = {metric['value']:.6g} {metric['unit']}")
    print(f"  failed_ratio = {record['failed_ratio']:.6g} ratio "
          f"({record['failed']} of {record['attempted']} operations failed)")
    for problem in record["problems"]:
        print(f"  PROBLEM: {problem}")


def run_workload(args) -> int:
    with open(BENCH / "reference.json") as handle:
        references = json.load(handle)
    check.self_test(references)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_notes": SEED_NOTES,
        "trace": args.trace,
        "run_seconds": args.seconds,
        "provenance": provenance(),
    }
    record.update(measure(args.workload, args.seed, args.seconds, bool(args.trace), references))
    RESULTS.mkdir(exist_ok=True)
    out = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(out, "w") as handle:
        json.dump(record, handle, indent=2)
        handle.write("\n")
    _print_report(args.workload, record)
    print(f"  results: {out.relative_to(ROOT)}")
    print(json.dumps({key: record[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


def run_all_workloads(args) -> int:
    """Each workload in its own fresh interpreter, one after another."""
    summary = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=False,
        )
        sys.stdout.write(proc.stdout.rpartition("\n{")[0] + "\n")
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        summary[workload] = json.loads(proc.stdout.strip().splitlines()[-1])
    print(json.dumps({
        "correct": all(s["correct"] for s in summary.values()),
        "attempted": sum(s["attempted"] for s in summary.values()),
        "failed": sum(s["failed"] for s in summary.values()),
        "metrics": {f"{w}.{name}": metric for w, s in summary.items()
                    for name, metric in s["metrics"].items()},
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print the monotonic clock once set up, then exit")
    args = parser.parse_args(argv)
    if args.setup_probe:
        print(time.monotonic())
        return 0
    if args.workload == "all":
        return run_all_workloads(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
