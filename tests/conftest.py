"""Shared test plumbing: collects acceptance-criterion results so that one
pass/fail line per criterion is printed at the end of the run, and makes a
solve that falls back to COLAMD an error in every test that does not expect
it (those use pytest.warns, which records the warning instead)."""

import warnings

import pytest

from shishkin_hdg.linalg import SolveFallbackWarning

acceptance_lines = []


@pytest.fixture(autouse=True)
def _fallback_is_an_error():
    with warnings.catch_warnings():
        warnings.simplefilter("error", SolveFallbackWarning)
        yield


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
