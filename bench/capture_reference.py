#!/usr/bin/env python3
"""Capture the reference outputs the benchmark checks against.

    python3 bench/capture_reference.py

Runs every operation of every workload once, with workload seed 0 and the
per-operation time limit, and writes ``bench/reference.json``.  Operations
that fail get no reference; the checker then falls back to structural and
closed-form checks.  Of the Choi operation only the seed-independent matrix
fidelity is kept, since its fit depends on the seed.
"""

from __future__ import annotations

import json
import tempfile

import run
from workloads import WORKLOADS


def main() -> None:
    references: dict = {}
    failed: dict = {}
    with tempfile.TemporaryDirectory(dir=run.BENCH) as workdir:
        for ops in WORKLOADS.values():
            for op in ops:
                outcome, reasons, _, _ = run.timed_execute(op, 0, workdir)
                if outcome is None or outcome.exit_code != 0:
                    failed[op.name] = reasons or [f"exit code {outcome.exit_code}: {outcome.stderr}"]
                    print(f"{op.name}: failed, {failed[op.name]}", flush=True)
                    continue
                if op.kind in ("protocol", "verify"):
                    references[op.name] = json.loads(outcome.output)
                elif op.kind == "haar":
                    references[op.name] = outcome.output
                else:
                    references[op.name] = {"fidelity": outcome.output["fidelity"]}
                print(f"{op.name}: captured", flush=True)
    references["_meta"] = {
        "git_commit": run.git_commit(),
        "source_sha256": run.source_digest(),
        "seed": 0,
        "failed_at_capture": failed,
    }
    with open(run.BENCH / "reference.json", "w") as handle:
        json.dump(references, handle, indent=2, sort_keys=True)
        handle.write("\n")


if __name__ == "__main__":
    main()
