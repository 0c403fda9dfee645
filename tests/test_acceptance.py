"""Acceptance suite: one test per structural criterion, tolerances pinned.

Each test prints its criterion's pass/fail line so a verbose run doubles as
the acceptance report.  The same checks back the ``verify`` subcommand.
"""

import dataclasses

import numpy as np
import pytest

from hodgecover import selector, verification
from hodgecover.verification import CHECKS, run_checks


@pytest.mark.parametrize("number,name,func", CHECKS,
                         ids=[f"criterion_{num:02d}_{name.replace(' ', '_')}"
                              for num, name, _ in CHECKS])
def test_criterion(number, name, func, capsys):
    result = run_checks(only=[number])[0]
    with capsys.disabled():
        print(f"\n{result.line()}", flush=True)
    assert result.passed, f"criterion {number} ({name}) failed: {result.detail}"


def test_betti_agreement_counts_the_analysis_pivots(monkeypatch):
    # criterion 3 also counts beta1 by the pivots Stage B takes, so a
    # reduction one pivot short fails it
    exact = verification.boundary_pivots

    def one_short(rows):
        pivot = exact(rows)
        pivot[np.flatnonzero(pivot)[:1]] = False
        return pivot
    monkeypatch.setattr(verification, "boundary_pivots", one_short)
    passed, detail = verification.check_betti_agreement()
    assert not passed and "mismatch" in detail


def test_allocator_conservation_compares_uniform_with_the_divmod_split(monkeypatch):
    # criterion 10: an allocator that hands the rounding deficit to the
    # highest-index layers conserves the budget, but it is not the uniform split
    exact = selector.allocate_weighted

    def deficit_to_last(rate, sizes, rho_harm):
        budget = exact(rate, sizes[::-1], rho_harm[::-1])
        return dataclasses.replace(budget, survivors=budget.survivors[::-1],
                                   drops=budget.drops[::-1])
    monkeypatch.setattr(selector, "allocate_weighted", deficit_to_last)
    monkeypatch.setattr(verification, "allocate_weighted", deficit_to_last)
    passed, detail = verification.check_allocator_conservation()
    assert not passed and "divmod split" in detail
