"""tools/bench_pairs.py's summary, which decides every perf claim: wins and losses
per pair in the declared direction, ties for neither side, failed runs skipped and
one-sided seeds dropped; and its two sides, exports of two commits, with uncommitted
source refused."""

import importlib.util
import json
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def run(seed, side, value, returncode=0):
    return {"seed": seed, "side": side, "returncode": returncode,
            "result": {"metrics": {"verify.wall_s": {"value": value, "unit": "s"}}}}


# the change is lower at seeds 1 and 3, ties at seed 2 and is higher at seed 4
PAIRS = [
    run(1, "parent", 2.0), run(1, "change", 1.0),
    run(2, "parent", 3.0), run(2, "change", 3.0),
    run(3, "parent", 4.0), run(3, "change", 3.5),
    run(4, "parent", 5.0), run(4, "change", 6.0),
]


def outcome(runs):
    summary = bench_pairs.summarize(runs)["verify.wall_s"]
    return summary["change_wins"], summary["change_losses"], summary["pairs"]


def test_a_tie_counts_for_neither_side():
    assert outcome(PAIRS) == (2, 1, 4)


def test_a_failed_run_is_skipped():
    # read, the first would turn seed 1 into a loss, and the second has no result
    failed = [run(1, "change", 9.0, returncode=1),
              {"seed": 2, "side": "change", "returncode": 0, "result": None}]
    assert outcome(PAIRS + failed) == (2, 1, 4)


def test_a_seed_with_one_side_is_dropped():
    summary = bench_pairs.summarize(PAIRS + [run(5, "parent", 100.0)])["verify.wall_s"]
    assert summary["pairs"] == 4
    assert summary["parent"] == bench_pairs.summarize(PAIRS)["verify.wall_s"]["parent"]


def test_a_higher_is_better_metric_flips_the_sign(monkeypatch):
    monkeypatch.setattr(bench_pairs, "better_directions", lambda: {"wall_s": "higher"})
    assert outcome(PAIRS) == (1, 2, 4)


@pytest.fixture
def checkout(tmp_path, monkeypatch):
    """A throwaway git checkout with one committed file in src/ and one at the root,
    in place of the real one; ``bench_pairs.git`` runs there."""
    (tmp_path / "src").mkdir()
    (tmp_path / "src" / "module.py").write_text("x = 1\n")
    (tmp_path / "README.md").write_text("readme\n")
    monkeypatch.setattr(bench_pairs, "ROOT", tmp_path)
    bench_pairs.git("init", "-q")
    bench_pairs.git("add", "-A")
    bench_pairs.git("-c", "user.name=test", "-c", "user.email=test@example.com",
                    "-c", "commit.gpgsign=false", "commit", "-q", "-m", "start")
    return tmp_path


def test_uncommitted_source_is_refused_before_any_run(checkout, monkeypatch, capsys):
    # a modified file and an untracked one; a changed document is not named
    (checkout / "src" / "module.py").write_text("x = 2\n")
    (checkout / "src" / "new.py").write_text("y = 1\n")
    (checkout / "README.md").write_text("another readme\n")
    monkeypatch.setattr(bench_pairs, "run", lambda tree, argv: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as refused:
        bench_pairs.main(["HEAD", "--pairs", "2", "--tag", "test"])
    assert refused.value.code == 2
    message = capsys.readouterr().err
    assert "src/module.py" in message and "src/new.py" in message
    assert "README.md" not in message


def test_both_sides_run_in_exports_of_their_commits(checkout, monkeypatch):
    parent = bench_pairs.git("rev-parse", "HEAD")
    (checkout / "src" / "module.py").write_text("x = 2\n")
    bench_pairs.git("-c", "user.name=test", "-c", "user.email=test@example.com",
                    "-c", "commit.gpgsign=false", "commit", "-q", "-am", "change")
    change = bench_pairs.git("rev-parse", "HEAD")
    trees = []

    def fake_run(tree, argv):
        trees.append(tree)
        results = tree / "bench" / "results"
        results.mkdir(parents=True, exist_ok=True)
        provenance = {"source_sha256": (tree / "src" / "module.py").read_text()}
        (results / "verify-seed0-trace1.json").write_text(json.dumps({"provenance": provenance}))
        return {"returncode": 0, "result": None}

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    monkeypatch.setattr(bench_pairs, "better_directions", dict)
    bench_pairs.main([parent, "--pairs", "2", "--tag", "test"])
    assert trees and all(tree.resolve() != checkout.resolve() for tree in trees)
    record = json.loads((checkout / "BENCH_test.json").read_text())
    assert (record["parent_commit"], record["change_commit"]) == (parent, change)
    assert record["machine"]["source_sha256"] == "x = 1\n"
    assert record["change_source_sha256"] == "x = 2\n"
