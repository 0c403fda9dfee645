"""Acceptance suite: one test per structural criterion, tolerances pinned.

Each test prints its criterion's pass/fail line so a verbose run doubles as
the acceptance report.  The same checks back the ``verify`` subcommand.
"""

import numpy as np
import pytest

from hodgecover import verification
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
