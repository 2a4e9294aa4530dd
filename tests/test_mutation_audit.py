"""tools/mutation_audit.py's fixed mutants against the source as it is: each old
text occurs exactly once, each expectation names a verify check, and together the
mutants are expected to fail every check of the battery."""

import importlib.util
from pathlib import Path

import pytest

from gateprog.verify import CRITERIA

_ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "mutation_audit", _ROOT / "tools" / "mutation_audit.py"
)
mutation_audit = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutation_audit)
MUTANTS = mutation_audit.MUTANTS


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_once(mutant):
    source = (_ROOT / mutant.path).read_text()
    assert source.count(mutant.old) == 1
    assert mutant.new != mutant.old


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_expectation_is_a_check_or_a_named_survivor(mutant):
    # a known survivor expects no check to fail and names the item that will catch it
    assert set(mutant.flips) <= set(CRITERIA)
    assert bool(mutant.flips) != bool(mutant.survivor)
    if mutant.survivor:
        assert mutant.survivor.startswith("ROADMAP item ")


def test_every_check_is_expected_to_fail_under_some_mutant():
    assert {name for m in MUTANTS for name in m.flips} == set(CRITERIA)


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
