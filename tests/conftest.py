import sys

import pytest

import signed_balance.graph as graph


@pytest.fixture
def storage_threshold(monkeypatch):
    """storage_threshold(k) sets graph.DENSE_THRESHOLD to k for the rest of
    the test, so storage built from then on is dense up to k nodes."""
    return lambda k: monkeypatch.setattr(graph, "DENSE_THRESHOLD", k)


def pytest_terminal_summary(terminalreporter):
    # re-print the acceptance verdict lines; normal capture would
    # otherwise swallow them for passing checks
    for name in ("test_acceptance", "tests.test_acceptance"):
        mod = sys.modules.get(name)
        if mod is not None and getattr(mod, "VERDICTS", None):
            terminalreporter.section("acceptance verdicts")
            for line in mod.VERDICTS:
                terminalreporter.write_line(line)
            break
