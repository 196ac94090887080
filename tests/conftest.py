"""Shared test fixtures: a check that no test leaves a child process running,
the acceptance suite's report, one pass/fail line per criterion, and the
DBSL control-basis optima that more than one test reads."""

import functools
import multiprocessing

import numpy as np
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


@functools.cache
def theta_c_optima():
    """``(dbs, theta_c, perr)``: the DBSL control-basis optimum at 5-25 dB in
    1 dB steps, criterion 7's grid, computed once per test session."""
    from cvmbqc import lattice, optimizer

    dbs = np.arange(5.0, 25.5, 1.0)
    return (dbs, *optimizer.dbsl_theta_c_optimum(lattice.db_to_r(dbs)))
