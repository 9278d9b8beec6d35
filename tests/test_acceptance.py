"""The acceptance gate: each numbered criterion runs at full strength, is
timed against its budget, and prints a single PASS/FAIL line."""

from __future__ import annotations

import time
from pathlib import Path

import pytest
from click.testing import CliRunner

from quantcat.cli import main
from quantcat.io import write_document
from quantcat.laws import run_law

CRITERIA = [
    (1, "residuation-adjointness", 2.0),
    (2, "divisible-builder", 2.0),
    (3, "yoneda-lemma", 5.0),
    (4, "isbell-kan-adjointness", 5.0),
    (5, "image-functors-via-kan", 3.0),
    (6, "concept-enumeration-agreement", 10.0),
    (7, "concept-lattice-completeness", 5.0),
    (8, "dense-factorization", 5.0),
    (9, "girard-duality", 5.0),
    (10, "concept-functoriality", 5.0),
    (11, "macneille", 5.0),
    (12, "closure-reconstruction", 5.0),
]


def announce(capsys, number: int, passed: bool) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if passed else 'FAIL'}")


@pytest.mark.parametrize("number,law_id,limit", CRITERIA)
def test_criterion(number: int, law_id: str, limit: float, capsys):
    start = time.perf_counter()
    result = run_law(law_id, 0, "medium")
    elapsed = time.perf_counter() - start
    announce(capsys, number, result.passed and elapsed < limit)
    assert result.passed, f"{law_id}: {result.witness}"
    assert elapsed < limit, f"{law_id} took {elapsed:.2f}s (budget {limit:.0f}s)"


def test_criterion_13(tmp_path, capsys):
    runner = CliRunner()
    failures = []

    first = runner.invoke(main, ["laws", "--seed", "7"])
    second = runner.invoke(main, ["laws", "--seed", "7"])
    if first.exit_code != 0:
        failures.append(f"laws run failed:\n{first.output}")
    if first.output != second.output:
        failures.append("laws output is not byte-identical across runs")

    ctx = {
        "schema": "context/v1",
        "quantale": {"kind": "boolean"},
        "objects": {"1": "1", "2": "1"},
        "attributes": {"a": "1", "b": "1"},
        "incidence": {"1": {"a": "1", "b": "1"}, "2": {"b": "1"}},
    }
    path = str(tmp_path / "ctx.yaml")
    write_document(ctx, path)
    out1, out2 = str(tmp_path / "r1.yaml"), str(tmp_path / "r2.yaml")
    for out in (out1, out2):
        run = runner.invoke(main, ["concepts", path, "--mode", "isbell", "--out", out])
        if run.exit_code != 0:
            failures.append(f"concepts run failed:\n{run.output}")
    if Path(out1).read_bytes() != Path(out2).read_bytes():
        failures.append("concepts output document is not byte-identical across runs")

    mutant = runner.invoke(main, ["laws", "--seed", "7", "--mutate", "compose"])
    if mutant.exit_code != 1:
        failures.append(f"mutated run exited {mutant.exit_code}, expected 1")
    witness_lines = [
        line
        for line in mutant.output.splitlines()
        if line.startswith("law=residuation-adjointness")
        and "status=FAIL" in line
        and "witness=" in line
    ]
    if not witness_lines:
        failures.append("mutated run did not report a residuation witness")

    announce(capsys, 13, not failures)
    assert not failures, "; ".join(failures)
