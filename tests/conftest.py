"""Shared pytest configuration.

The acceptance tests record one human-readable pass/fail line per criterion;
those lines are echoed in a dedicated section of the terminal summary so the
overall gate can be read at a glance.  A hypothesis profile without a
deadline is loaded for every test.
"""

from __future__ import annotations

from hypothesis import settings

# Wall-clock deadlines flake on a loaded machine; every property that sets
# its own settings already passes deadline=None.
settings.register_profile("taalkit", deadline=None)
settings.load_profile("taalkit")

ACCEPTANCE_LINES: list[str] = []


def record_acceptance(ok: bool, criterion: int, description: str, detail: str = "") -> bool:
    """Record one acceptance-criterion outcome line and return ``ok``."""
    status = "PASS" if ok else "FAIL"
    line = f"{status}  criterion {criterion}: {description}"
    if detail:
        line += f"  [{detail}]"
    ACCEPTANCE_LINES.append(line)
    # Print immediately as well, so the line survives even if the run aborts.
    print(line)
    return ok


def pytest_terminal_summary(terminalreporter, exitstatus, config):  # noqa: ARG001
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
