"""tools/bench_pairs.py's summary, which decides every perf claim: wins and losses
per pair in the declared direction, ties for neither side, failed runs skipped and
one-sided seeds dropped."""

import importlib.util
from pathlib import Path

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
