"""Shared test fixtures: a check that no test leaves a child process running,
and the acceptance suite's report, one pass/fail line per criterion."""

import multiprocessing

import pytest

ACCEPTANCE_RESULTS = []


@pytest.fixture(autouse=True)
def no_leaked_child_processes():
    yield
    leaked = multiprocessing.active_children()
    message = f"the test left child processes running: {leaked}"
    for proc in leaked:  # stop them, so that the next test starts clean
        proc.terminate()
        proc.join(10)
    if leaked:
        pytest.fail(message)


def record_criterion(number: int, description: str, passed: bool, detail: str = ""):
    ACCEPTANCE_RESULTS.append((number, description, passed, detail))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number, description, passed, detail in sorted(ACCEPTANCE_RESULTS):
        status = "PASS" if passed else "FAIL"
        line = f"[{status}] criterion {number}: {description}"
        if detail:
            line += f"  ({detail})"
        terminalreporter.write_line(line)
