"""Shared fixtures and the acceptance-criteria summary hook.

test_acceptance.py registers one result per criterion through
record_criterion; the terminal summary prints them so a run shows at a glance
which contract points hold. When EWTAB_BENCH_OUT names a file, the session
also writes there one JSON object per line for each criterion:
{"name", "pass", "seconds", "budget"}, budget null when there is none.
"""

import json
import os

import pytest

from ewtab.diagrams import FerrersDiagram

ACCEPTANCE_RESULTS = []


def record_criterion(name, passed, seconds, budget):
    ACCEPTANCE_RESULTS.append((name, bool(passed), seconds, budget))


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for name, passed, seconds, budget in ACCEPTANCE_RESULTS:
        line = "%s %s (%.2fs" % ("PASS" if passed else "FAIL", name, seconds)
        if budget is not None:
            line += " of %ds" % budget
        terminalreporter.write_line(line + ")")


def pytest_sessionfinish(session, exitstatus):
    path = os.environ.get("EWTAB_BENCH_OUT")
    if not path:
        return
    with open(path, "w") as out:
        for name, passed, seconds, budget in ACCEPTANCE_RESULTS:
            out.write(json.dumps({"name": name, "pass": passed,
                                  "seconds": seconds, "budget": budget}) + "\n")


@pytest.fixture
def d321():
    return FerrersDiagram((3, 2, 1))


@pytest.fixture
def d5332():
    return FerrersDiagram((5, 3, 3, 2))


@pytest.fixture
def d22():
    return FerrersDiagram((2, 2))
