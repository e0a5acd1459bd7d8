"""Shared test plumbing: collects acceptance-criterion results so that one
pass/fail line per criterion is printed at the end of the run. Every
warning a test does not expect with pytest.warns is an error (pyproject's
filterwarnings), so a box-tree solve that falls back to SuperLU fails the
test.
Every hypothesis property runs under one profile: no deadline, and
derandomized, so a run draws the same examples each time."""

from hypothesis import settings

settings.register_profile("tier1", deadline=None, derandomize=True)
settings.load_profile("tier1")

acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
