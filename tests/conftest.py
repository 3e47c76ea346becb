"""Shared fixtures and the acceptance-criterion summary hook."""

import pytest
from hypothesis import settings

from resnf.indexing import TruncationContext

# Property tests draw the same examples on every run (derandomize also
# turns off the example database); each test keeps its own max_examples.
settings.register_profile("repeatable", derandomize=True)
settings.load_profile("repeatable")


@pytest.fixture
def ctx6():
    """Six-variable finite-dimensional context, exact arithmetic."""
    return TruncationContext(6, 8, momentum_enabled=False, arithmetic="exact")


@pytest.fixture
def ctx6f(ctx6):
    return ctx6.with_arithmetic("float")


@pytest.fixture
def ctx4():
    """Four-variable finite-dimensional context, exact arithmetic."""
    return TruncationContext(4, 8, momentum_enabled=False, arithmetic="exact")


@pytest.fixture
def wave_ctx():
    """Small two-sided context with momentum bookkeeping, exact."""
    return TruncationContext(2, 5, momentum_enabled=True, arithmetic="exact")


class _CriterionLog:
    """Collects one PASS/FAIL line per acceptance criterion."""

    def __init__(self):
        self.lines = []

    def check(self, cid, description, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        line = "[%s] criterion %s: %s" % (status, cid, description)
        if detail and not ok:
            line += " — " + detail
        self.lines.append(line)
        assert ok, "criterion %s: %s — %s" % (cid, description, detail)


_LOG = _CriterionLog()


@pytest.fixture(scope="session")
def criteria():
    return _LOG


def pytest_terminal_summary(terminalreporter):
    if not _LOG.lines:
        return
    terminalreporter.section("acceptance criteria")
    for line in _LOG.lines:
        terminalreporter.write_line(line)
