"""Shared test plumbing: collects acceptance-criterion results so that one
pass/fail line per criterion is printed at the end of the run. Every
warning a test does not expect with pytest.warns is an error (pyproject's
filterwarnings), so a solve that falls back to COLAMD fails the test."""

acceptance_lines = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not acceptance_lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in acceptance_lines:
        terminalreporter.write_line(line)
