"""Report helpers only the tests read."""

from __future__ import annotations


def first_failure(report):
    """The first failed check of a `SuiteReport`, or None when all passed."""
    return next((c for c in report.checks if not c.passed), None)
