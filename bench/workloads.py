"""The benchmark's workloads: ordered lists of operations on gateprog's public API.

Every operation goes through a module attribute (``cli.run``,
``oracle.haar_fidelity``, ...) looked up at call time, never through a name
bound at import, so the traced run sees the same calls as the untraced one.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
from dataclasses import dataclass

from gateprog import cli, oracle, protocol, scoring

# Per-operation wall-time limit, the same on every commit.  The slowest
# operation that succeeds at the seed commit (protocol d=2 n=1024) takes
# 6-7.5 s on 2 cores, so this leaves it room to be slowed by tracing or by a
# busy machine without flickering into a failure.  protocol d=2 n=4096 ran for
# 69 s before failing with a ConvergenceError, so the limit is what stops it.
TIME_LIMIT_S = 20.0

CHOI_SAMPLES = 10**6

# Wall seconds of one pass over each workload at the seed commit on 2 cores.
# A run makes round(seconds / nominal) passes, at least one, so the number of
# operations attempted and failed depends only on the arguments, never on
# how fast the machine happens to be during the run.
NOMINAL_PASS_S = {"protocol-grid": 34.0, "verify": 10.0, "crosscheck": 15.0}


def pass_count(workload: str, seconds: int) -> int:
    return max(1, round(seconds / NOMINAL_PASS_S[workload]))

# Operations that fail at the seed commit, with the failure kinds they show.
# They stay in their workloads and count in ``failed``; ``correct`` turns
# false only when an operation fails in a way that is not listed here, or
# when an output does not match its reference.
EXPECTED_FAILURES = {
    "protocol d=2 n=4096": ("timeout", "exit code 2"),
    "choi d=2 n=512": ("missed tolerance",),
}

# Notes on how the workload seed reaches the program, recorded in every
# results file.
SEED_NOTES = (
    "The workload seed is passed to `gateprog verify --seed` and to the "
    "seed of oracle.choi_monte_carlo_su2 in crosscheck. protocol-grid takes "
    "no random input. phase.diamond_distance_search, run inside verify, uses "
    "fixed internal seeds (0..31 and 10000) whatever the workload seed is."
)


@dataclass(frozen=True)
class Operation:
    name: str
    kind: str  # "protocol", "verify", "haar" or "choi"
    d: int = 0
    n: int = 0
    weights: str = ""  # "sine" or "optimal", for "haar"


@dataclass
class Outcome:
    """What one operation produced: its exit code and its output."""

    exit_code: int
    output: object  # protocol/verify: the emitted text; haar/choi: a dict of numbers
    stderr: str = ""


WORKLOADS = {
    "protocol-grid": tuple(
        Operation(f"protocol d={d} n={n}", "protocol", d=d, n=n)
        for d, n in ((2, 512), (2, 1024), (2, 4096), (3, 600), (4, 300))
    ),
    "verify": (Operation("verify", "verify"),),
    "crosscheck": tuple(
        Operation(f"haar d=3 n={n} {w}", "haar", d=3, n=n, weights=w)
        for n in (45, 60)
        for w in ("sine", "optimal")
    ) + (Operation("choi d=2 n=512", "choi", d=2, n=512),),
}


def _run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.run(argv)
    return code, out.getvalue(), err.getvalue()


def _protocol(op: Operation, workdir: str) -> Outcome:
    path = os.path.join(workdir, f"protocol-d{op.d}-n{op.n}.json")
    if os.path.exists(path):
        os.unlink(path)
    argv = ["protocol", "--d", str(op.d), "--n", str(op.n), "--format", "json", "--output", path]
    code, _, err = _run_cli(argv)
    text = None
    if os.path.exists(path):
        with open(path) as handle:
            text = handle.read()
    return Outcome(code, text, err)


def _verify(seed: int) -> Outcome:
    code, out, err = _run_cli(["verify", "--format", "json", "--seed", str(seed)])
    return Outcome(code, out, err)


def _haar(op: Operation) -> Outcome:
    diagram_set = protocol.viable_set(op.n, op.d)
    matrix = scoring.score_matrix(diagram_set)
    if op.weights == "sine":
        q = protocol.sine_weights(diagram_set)
    else:
        q = scoring.optimal_fidelity(matrix).weights_used
    grid = oracle.su_torus_grid(op.d, op.n + 1)
    return Outcome(0, {
        "haar_fidelity": oracle.haar_fidelity(diagram_set, q, grid),
        "matrix_fidelity": scoring.entanglement_fidelity(q, matrix).fidelity,
    })


def _choi(op: Operation, seed: int) -> Outcome:
    diagram_set = protocol.viable_set(op.n, op.d)
    q = protocol.sine_weights(diagram_set)
    fidelity = scoring.entanglement_fidelity(q, scoring.score_matrix(diagram_set)).fidelity
    fit = oracle.choi_monte_carlo_su2(op.n, q, CHOI_SAMPLES, seed=seed)
    return Outcome(0, {
        "a": fit.a,
        "residual": fit.residual,
        "fidelity": fidelity,
        "samples": CHOI_SAMPLES,
        "seed": seed,
        "tolerance": 5.0 / math.sqrt(CHOI_SAMPLES),
    })


def execute(op: Operation, seed: int, workdir: str) -> Outcome:
    """Run one operation to completion; exceptions propagate to the caller."""
    if op.kind == "protocol":
        return _protocol(op, workdir)
    if op.kind == "verify":
        return _verify(seed)
    if op.kind == "haar":
        return _haar(op)
    if op.kind == "choi":
        return _choi(op, seed)
    raise ValueError(f"unknown operation kind {op.kind!r}")
