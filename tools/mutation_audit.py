"""Mutation audit of the verify battery: each mutant must fail the checks it names.

    python3 tools/mutation_audit.py [CHECKOUT]

Exports the committed files of CHECKOUT (default: this checkout) with
``git archive HEAD`` into a temporary directory, the way the benchmark measures
a commit, and removes the directory when it is done.  Runs

    gateprog verify --format json

there once as committed, where every check must pass, and then once per mutant
in MUTANTS, each with one exact-text patch applied to one file of ``src/`` and
each in a fresh interpreter that writes no bytecode.  Prints one line per run and
exits 1 if

- the unmutated battery fails a check or gives no report,
- a mutant's old text is not found exactly once in its file (the mutant is
  stale),
- a mutant gives no report, or does not fail every check it names, or
- some check of the battery is failed by no mutant.

A known survivor fails no check today; it names the ROADMAP item whose check
will catch it, and its expectation is tightened when that check lands.
"""

from __future__ import annotations

import importlib.util
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().with_name("bench_pairs.py")
)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

VERIFY = ("-m", "gateprog", "verify", "--format", "json")


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    flips: tuple[str, ...]
    survivor: str | None = None
    detail: str | None = None  # a pattern the detail of the first check in flips must match


UNREAD = "ROADMAP item 11: verify reads no report's epsilon_optimal, fidelity_optimal or dP"

MUTANTS = (
    Mutant(
        "report's epsilon_optimal := epsilon_qstar", "src/gateprog/reporting.py",
        "        epsilon_optimal=epsilon_optimal,\n",
        "        epsilon_optimal=epsilon_qstar,\n", (), UNREAD,
    ),
    Mutant(
        "report's fidelity_optimal := fidelity_qstar", "src/gateprog/reporting.py",
        "        fidelity_optimal=1.0 - epsilon_optimal,\n",
        "        fidelity_optimal=fidelity_qstar,\n", (), UNREAD,
    ),
    Mutant(
        "report's dP x 9/10", "src/gateprog/reporting.py",
        "        dP_exact=dim_exact,\n",
        "        dP_exact=dim_exact * 9 // 10,\n", (), UNREAD,
    ),
    Mutant(
        "solver tolerance 1e-6 in place of 1e-12", "src/gateprog/scoring.py",
        "_TOL = 1e-12\n",
        "_TOL = 1e-6\n", (),
        "ROADMAP item 11: no check compares epsilon_optimal at its printed digits",
    ),
    Mutant(
        "d=2 closed form sin^2(pi/(2(N+2)))", "src/gateprog/reporting.py",
        "math.sin(math.pi / (2 * (big_n + 1))) ** 2",
        "math.sin(math.pi / (2 * (big_n + 2))) ** 2", (), UNREAD,
    ),
    Mutant(
        "a d >= 3 report ignores its solve and reads epsilon_qstar",
        "src/gateprog/reporting.py",
        "        epsilon_optimal = (solve or optimal_fidelity)(score_matrix(diagram_set)).error\n",
        "        epsilon_optimal = epsilon_qstar\n", (), UNREAD,
    ),
    Mutant(
        "dP's difference weights read C(N, j) for C(N, j+1)", "src/gateprog/reporting.py",
        "math.comb(big_n, j + 1)",
        "math.comb(big_n, j)", ("cost_scaling",),
    ),
    Mutant(
        "the solver returns its sine start", "src/gateprog/scoring.py",
        "    s.matvec(x, sx)\n    matvecs, confirmed = 1, True\n",
        "    return s.error_form(x)\n", ("eigenvalue_oracle",),
    ),
    Mutant(
        "the Pieri matvec drops its face term", "src/gateprog/scoring.py",
        "            face = first + a.reshape(-1, big_n, step)[:, 0]\n",
        "            face = first.copy()\n",
        ("eigenvalue_oracle", "oracle_equivalence", "closed_form_consistency",
         "choi_decomposition"),
        # eigenvalue_oracle through the solver term: the dense chain, built without the
        # matvec, stays within its 1e-10 of the analytic value.  The others through the
        # error form, whose boundary counts d^2 - S 1 then miss the faces
        detail=r"analytic\| = \S+e-(1[1-9]|[2-9]\d),",
    ),
    Mutant(
        "phase_report's eps_quantum x (1 + 1e-6)", "src/gateprog/phase.py",
        "        eps_quantum=eps_q,\n",
        "        eps_quantum=eps_q * (1.0 + 1e-6),\n", ("phase_gate",),
    ),
    Mutant(
        "the diamond search's difference halves D, the Choi convention",
        "src/gateprog/phase.py",
        "    out[..., :2, 2:] = (kappa - 1.0) * rho[..., :2, 2:]\n"
        "    out[..., 2:, :2] = (kappa - 1.0) * rho[..., 2:, :2]\n",
        "    out[..., :2, 2:] = (kappa - 1.0) / 2.0 * rho[..., :2, 2:]\n"
        "    out[..., 2:, :2] = (kappa - 1.0) / 2.0 * rho[..., 2:, :2]\n", ("phase_gate",),
    ),
    Mutant(
        "enumerate_diagrams drops the diagrams whose parts fill every row",
        "src/gateprog/young.py",
        "            if part * slots >= remaining:\n",
        "            if part * slots > remaining:\n", ("schur_weyl_dimension_identity",),
    ),
    Mutant(
        "the error form drops its boundary term", "src/gateprog/scoring.py",
        "    error += float(np.sum(missing * a * a))\n",
        "", ("oracle_equivalence", "closed_form_consistency"),
    ),
    Mutant(
        "the error form drops its exchange edges", "src/gateprog/scoring.py",
        "    directions = np.concatenate([unit, unit[i] - unit[j]]).tolist()\n",
        "    directions = unit.tolist()\n", ("oracle_equivalence", "closed_form_consistency"),
    ),
    Mutant(
        "the Haar oracle's defining character loses x_d", "src/gateprog/oracle.py",
        "    product = np.roll(coeff, -1, axis=tuple(range(d - 1)))\n",
        "    product = np.zeros_like(coeff)\n", ("oracle_equivalence",),
    ),
    Mutant(
        "epsilon_g x 1.001", "src/gateprog/protocol.py",
        "math.sin(math.pi / (2 * big_n)) ** 2 / big_n\n",
        "math.sin(math.pi / (2 * big_n)) ** 2 / big_n * 1.001\n",
        ("closed_form_consistency",),
    ),
    Mutant(
        "epsilon_g without its square", "src/gateprog/protocol.py",
        "math.sin(math.pi / (2 * big_n)) ** 2 / big_n\n",
        "math.sin(math.pi / (2 * big_n)) / big_n\n", ("heisenberg_scaling",),
    ),
    Mutant(
        "the eq6 bound reads 9n/(3d-2) as 3n/(3d-2)", "src/gateprog/reporting.py",
        "math.log2(9.0 * n / (3 * d - 2))",
        "math.log2(3.0 * n / (3 * d - 2))", ("error_and_dimension_bounds",),
    ),
    Mutant(
        "the Choi sampler halves the eigenphase", "src/gateprog/oracle.py",
        "        np.cos(phis), np.sin(phis), density,",
        "        np.cos(phis / 2.0), np.sin(phis / 2.0), density,", ("choi_decomposition",),
    ),
)


def run_verify(tree: Path) -> list[dict] | str:
    """verify's checks in ``tree``, or the error text if it gives no report."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, *VERIFY], cwd=tree, env=env, capture_output=True,
                          text=True, timeout=300, check=False)
    try:
        return json.loads(proc.stdout)["checks"]
    except (json.JSONDecodeError, KeyError):
        return f"no report, exit {proc.returncode}: {proc.stderr.strip()[-300:]}"


def audit(tree: Path) -> int:
    checks = run_verify(tree)
    if isinstance(checks, str) or not all(c["passed"] for c in checks):
        print(f"FAIL unmutated: {checks}")
        return 1
    print("ok   unmutated: every check passes")
    flipped: set[str] = set()
    problems = 0
    for mutant in MUTANTS:
        path = tree / mutant.path
        original = path.read_text()
        count = original.count(mutant.old)
        if count != 1:
            print(f"FAIL {mutant.name}: old text found {count} times in {mutant.path}")
            problems += 1
            continue
        path.write_text(original.replace(mutant.old, mutant.new))
        try:
            report = run_verify(tree)
        finally:
            path.write_text(original)
        if isinstance(report, str):
            print(f"FAIL {mutant.name}: {report}")
            problems += 1
            continue
        failed = {c["name"]: c["detail"] for c in report if not c["passed"]}
        flipped.update(failed)
        missed = [name for name in mutant.flips if name not in failed]
        if mutant.detail and not missed and not re.search(mutant.detail, failed[mutant.flips[0]]):
            missed.append(f"{mutant.flips[0]} with a detail matching {mutant.detail!r}")
        problems += bool(missed)
        line = f"{'FAIL' if missed else 'ok  '} {mutant.name}: fails {', '.join(failed) or 'nothing'}"
        if missed:
            line += f"; expected {', '.join(missed)}"
        if mutant.survivor:
            line += f" (known survivor, {mutant.survivor})"
        print(line)
    unflipped = [c["name"] for c in checks if c["name"] not in flipped]
    if unflipped:
        print(f"FAIL no mutant fails {', '.join(unflipped)}")
        problems += 1
    print(f"{len(MUTANTS)} mutants, {problems} problems")
    return 1 if problems else 0


def main(argv: list[str]) -> int:
    if len(argv) > 1:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    checkout = Path(argv[0] if argv else Path(__file__).resolve().parent.parent).resolve()
    with tempfile.TemporaryDirectory(prefix="mutation-audit-") as directory:
        bench_pairs.export("HEAD", Path(directory), checkout)
        return audit(Path(directory))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
