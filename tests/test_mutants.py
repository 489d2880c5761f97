"""The mutant runner, on one mutant and one fast test (the full run,
`python tests/mutants.py`, is not part of the test suite)."""

import dataclasses

import mutants


def test_the_runner_kills_a_mutant_in_a_copy_and_flags_a_stale_one():
    mutant = next(m for m in mutants.MUTANTS
                  if m.id == "precreation-without-paid")
    edited = mutants.ROOT / mutant.path
    before = edited.read_bytes()
    assert mutants.check(mutant, timeout=120) == "killed"
    assert edited.read_bytes() == before
    gone = dataclasses.replace(mutant, old="no such snippet")
    assert mutants.check(gone) == "stale"
