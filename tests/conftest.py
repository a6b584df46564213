"""Shared pytest plumbing: a per-criterion pass/fail ledger that is printed
as a terminal section after the run, one line per acceptance criterion."""

import pytest

from ffwitness.field import clear_field_cache

CRITERIA: dict[int, str] = {}  # criterion number -> its ledger line


def record_criterion(num: int, ok: bool, detail: str = "") -> str:
    """Store and return the one-line verdict for an acceptance criterion."""
    line = f"criterion {num:2d}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f"  ({detail})"
    CRITERIA[num] = line
    return line


@pytest.fixture(autouse=True, scope="module")
def _fresh_caches():
    # keep per-module memory bounded; fields rebuild quickly
    yield
    clear_field_cache()


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not CRITERIA:
        return
    terminalreporter.section("acceptance criteria")
    for num in sorted(CRITERIA):
        terminalreporter.write_line(CRITERIA[num])
