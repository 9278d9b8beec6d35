"""The law-suite protocol: a suite yields once as each instance starts and
returns the witness of a failure; run_law alone counts and reports."""

from __future__ import annotations

import inspect

import pytest

from quantcat import laws
from quantcat.laws import LAWS, LawResult, run_law


def failing_at(k: int, total: int = 5):
    def suite(rng, profile):
        for i in range(1, total + 1):
            yield
            if i == k:
                return f"instance {i} fails"

    return suite


def test_every_law_is_a_generator_function():
    assert all(inspect.isgeneratorfunction(fn) for fn in LAWS.values())


def test_a_failure_counts_the_instances_run_with_the_failing_one(monkeypatch):
    monkeypatch.setitem(laws.LAWS, "stub", failing_at(3))
    assert run_law("stub", 0, "small") == LawResult("stub", 3, False, "instance 3 fails")


def test_a_witness_before_any_instance_counts_none(monkeypatch):
    def suite(rng, profile):
        return "refused up front"
        yield

    monkeypatch.setitem(laws.LAWS, "stub", suite)
    assert run_law("stub", 0, "small") == LawResult("stub", 0, False, "refused up front")


def test_a_suite_that_ends_passes_with_every_instance_counted(monkeypatch):
    monkeypatch.setitem(laws.LAWS, "stub", failing_at(0, total=4))
    assert run_law("stub", 0, "small") == LawResult("stub", 4, True, None)


@pytest.mark.parametrize("mutate", [None, "compose"])
def test_only_residuation_is_handed_the_mutation(monkeypatch, mutate):
    def residuation(rng, profile, mutation):
        return f"mutate={mutation}"
        yield

    monkeypatch.setitem(laws.LAWS, "residuation-adjointness", residuation)
    monkeypatch.setitem(laws.LAWS, "stub", failing_at(0, total=1))
    assert run_law("residuation-adjointness", 0, "small", mutate).witness == f"mutate={mutate}"
    assert run_law("stub", 0, "small", mutate).passed


def test_the_corrupted_composition_fails_at_its_fixture():
    # The mutant is the last of five fixtures.
    result = run_law("residuation-adjointness", 3, "small", "compose")
    assert (result.instances, result.passed) == (5, False)
    assert result.witness.startswith("ql3-mutant: ")


def test_the_agreement_law_reads_pairs_and_builds_no_lattice(monkeypatch):
    # Comparing generated against brute extents needs no hom: no
    # ConceptLattice, so no hom cross-check either.
    import quantcat.adjunction as adjunction

    built = []
    init = adjunction.ConceptLattice.__init__
    monkeypatch.setattr(
        adjunction.ConceptLattice, "__init__", lambda self, *a: built.append(a[1]) or init(self, *a)
    )
    result = run_law("concept-enumeration-agreement", 0, "small")
    assert result.passed and result.instances > 1
    assert built == []
