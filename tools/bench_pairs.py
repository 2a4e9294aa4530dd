"""Interleaved benchmark runs of a parent commit and HEAD.

    python3 tools/bench_pairs.py PARENT_REF --pairs N --tag TAG

Exports the committed files of PARENT_REF and of HEAD into two temporary
directories with ``git archive``, the way the benchmark measures a commit, and
removes them when it is done.  It refuses to start when a file under src/ or
bench/, the files a run reads, differs from HEAD or is untracked, so a record
never describes uncommitted code.  Pair i (seed i, i = 1..N) runs

    python3 bench/run.py --workload all --seed i --seconds 30 --trace 0

once in each tree, the parent first in odd pairs and the change first in even
ones.  After the last pair each side makes one traced verify run
(``--workload verify --seed 0 --seconds 3 --trace 1``).  Writes
BENCH_<TAG>.json at the root of this checkout: every run's last JSON line and,
for every metric, each side's quartiles over the pairs and the pairs the change
wins and loses, in the direction BENCHMARK.json declares.  Ties count for
neither side.
"""

from __future__ import annotations

import argparse
import io
import json
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMMAND = ("python3", "bench/run.py", "--workload", "all", "--seed", "SEED", "--seconds", "30",
           "--trace", "0")
TRACED = ("python3", "bench/run.py", "--workload", "verify", "--seed", "0", "--seconds", "3",
          "--trace", "1")


def git(*args: str) -> str:
    return subprocess.run(["git", *args], cwd=ROOT, check=True, capture_output=True,
                          text=True).stdout.strip()


def export(ref: str, directory: Path, checkout: Path = ROOT) -> None:
    """The committed files of ``ref`` in ``checkout``, unpacked into ``directory``."""
    archive = subprocess.run(["git", "archive", ref], cwd=checkout, check=True,
                             capture_output=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(directory, filter="data")


def run(tree: Path, argv: tuple[str, ...]) -> dict:
    """One benchmark run in ``tree``: its exit code and its last stdout line as JSON."""
    proc = subprocess.run([sys.executable, *argv[1:]], cwd=tree, capture_output=True,
                          text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if result is None:
        sys.stderr.write(f"{tree}: {' '.join(argv)} gave no JSON line\n{proc.stderr}")
    return {"returncode": proc.returncode, "result": result}


def better_directions() -> dict[str, str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        declared = json.load(handle)
    return {m["name"]: m["better"] for key in ("end_to_end", "per_layer") for m in declared[key]}


def summarize(runs: list[dict]) -> dict:
    """Per metric: each side's quartiles over the pairs, and the change's wins and
    losses against the parent of the same pair."""
    directions = better_directions()
    values: dict[str, dict[int, dict[str, float]]] = {}
    for entry in runs:
        if entry["returncode"] or entry["result"] is None:
            continue
        for name, metric in entry["result"]["metrics"].items():
            values.setdefault(name, {}).setdefault(entry["seed"], {})[entry["side"]] = metric["value"]
    summary = {}
    for name, by_seed in values.items():
        both = [v for v in by_seed.values() if len(v) == 2]
        if len(both) < 2:
            continue
        sign = -1.0 if directions.get(name.split(".", 1)[1], "lower") == "higher" else 1.0
        diffs = [sign * (v["change"] - v["parent"]) for v in both]
        summary[name] = {
            **{side: dict(zip(("q1", "median", "q3"),
                              statistics.quantiles([v[side] for v in both], n=4)))
               for side in ("parent", "change")},
            "change_wins": sum(diff < 0 for diff in diffs),
            "change_losses": sum(diff > 0 for diff in diffs),
            "pairs": len(both),
        }
    return summary


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent_ref")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error(f"need at least 2 pairs for quartiles, got {args.pairs}")
    uncommitted = git("status", "--porcelain", "--", "src", "bench").splitlines()
    if uncommitted:
        paths = ", ".join(line.split(maxsplit=1)[1] for line in uncommitted)
        parser.error(f"uncommitted changes under src/ or bench/: {paths}")
    parent_commit = git("rev-parse", "--verify", f"{args.parent_ref}^{{commit}}")
    change_commit = git("rev-parse", "HEAD")

    scratch = Path(tempfile.mkdtemp(prefix="bench-pairs-"))
    try:
        trees = {"parent": scratch / "parent", "change": scratch / "change"}
        for tree, commit in zip(trees.values(), (parent_commit, change_commit)):
            tree.mkdir()
            export(commit, tree, ROOT)
        seeds = list(range(1, args.pairs + 1))
        runs = []
        for seed in seeds:
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            argv = tuple(str(seed) if a == "SEED" else a for a in COMMAND)
            for side in order:
                runs.append({"seed": seed, "side": side, "first": order[0],
                             **run(trees[side], argv)})
                print(f"seed {seed} {side}: exit {runs[-1]['returncode']}", file=sys.stderr)
        traced = {side: run(tree, TRACED) for side, tree in trees.items()}
        provenance = {}
        for side, tree in trees.items():
            with open(tree / "bench" / "results" / "verify-seed0-trace1.json") as handle:
                provenance[side] = json.load(handle)["provenance"]
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    record = {
        "description": (
            f"Interleaved parent/change runs of {' '.join(COMMAND)}, one pair per seed, "
            "each side in a git archive export of its commit; "
            "'first' names the side that ran first, alternating by pair. 'result' is each "
            "run's final JSON line. Quartiles are statistics.quantiles(n=4) over the pairs; "
            "wins and losses compare the two runs of one pair in the direction "
            "BENCHMARK.json declares, ties counting for neither. 'traced_verify' is one "
            f"run of {' '.join(TRACED)} per side, after the last pair."
        ),
        "command": " ".join(COMMAND),
        "parent_commit": parent_commit,
        "change_commit": change_commit,
        "seeds": seeds,
        "machine": provenance["parent"],
        "change_source_sha256": provenance["change"]["source_sha256"],
        "summary": summarize(runs),
        "runs": runs,
        "traced_verify": traced,
        "machine_note": "machine block taken from the parent's traced verify results file",
    }
    out = ROOT / f"BENCH_{args.tag}.json"
    with open(out, "w") as handle:
        json.dump(record, handle, indent=1)
        handle.write("\n")
    print(f"wrote {out.relative_to(ROOT)}", file=sys.stderr)
    failed = [r for r in (*runs, *traced.values()) if r["returncode"] or r["result"] is None]
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
